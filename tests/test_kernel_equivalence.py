"""Property test: the optimized kernel is observably identical to the
frozen pre-optimization reference.

A seeded generator builds a random *program* — pure data: process scripts
made of timeouts, AnyOf/AllOf races (nested one level), event waits/fires,
child spawns and cross-process interrupts.  The same program is interpreted
under ``tests/reference_kernel.py`` (single heap, no tombstones, no
zero-delay fast path) and under ``repro.sim`` (cancellable timers, deque
fast path, lazy deletion), and the observable traces must match exactly:

- every process resume: same simulated time, same op, same outcome;
- the clock at every ``run(until=...)`` checkpoint;
- final process values.

What the optimized kernel is *allowed* to change is unobservable queue
residue: abandoned timers no longer drain the clock forward after the last
live wakeup.  The trace therefore records what processes *see*, never how
long ``run()`` idles afterwards.
"""

import random

import pytest

import tests.reference_kernel as reference
from repro import sim as optimized
from repro.errors import Interrupt

HORIZON = 200.0
CHECKPOINTS = (25.0, 60.0, 110.0, HORIZON)

#: The kernel under test, named by its scheduler: ``repro.sim`` runs on
#: the timing wheel, and every case is checked against the reference.
KERNELS = [pytest.param(optimized, id="wheel")]


def make_program(seed, n_procs=6, n_ops=7, delay_fn=None, checkpoints=None):
    """Generate a random schedule as plain data (kernel-independent)."""
    rng = random.Random(seed)

    def delays(k):
        if delay_fn is not None:
            return [delay_fn(rng) for _ in range(k)]
        return [round(rng.uniform(0.1, 40.0), 3) for _ in range(k)]

    n_events = rng.randint(1, 4)
    procs = []
    for _ in range(n_procs):
        ops = []
        for _ in range(rng.randint(1, n_ops)):
            kind = rng.choice(
                ["timeout", "any", "all", "nested", "spawn",
                 "interrupt", "fire", "wait"]
            )
            if kind == "timeout":
                ops.append(("timeout", delays(1)[0]))
            elif kind == "any":
                ops.append(("any", delays(rng.randint(2, 4))))
            elif kind == "all":
                ops.append(("all", delays(rng.randint(2, 3))))
            elif kind == "nested":
                # any_of([timeout, all_of([timeout, timeout])])
                ops.append(("nested", delays(1)[0], delays(2)))
            elif kind == "spawn":
                child = [("timeout", d) for d in delays(rng.randint(1, 2))]
                ops.append(("spawn", child, rng.random() < 0.5))
            elif kind == "interrupt":
                ops.append(
                    ("interrupt", rng.randrange(n_procs), delays(1)[0])
                )
            elif kind == "fire":
                ops.append(
                    ("fire", rng.randrange(n_events), delays(1)[0],
                     rng.randint(0, 99))
                )
            else:
                ops.append(("wait", rng.randrange(n_events)))
        procs.append(ops)
    program = {"n_events": n_events, "procs": procs}
    if checkpoints is not None:
        program["checkpoints"] = checkpoints
    return program


def interpret(kernel, program):
    """Run ``program`` under ``kernel`` and return its observable trace."""
    env = kernel.Environment()
    events = [env.event() for _ in range(program["n_events"])]
    registry = []
    trace = []

    def note(name, step, outcome):
        trace.append((name, step, round(env.now, 9), outcome))

    def run_ops(env, ops, name):
        for step, op in enumerate(ops):
            try:
                if op[0] == "timeout":
                    yield env.timeout(op[1])
                    note(name, step, "timeout")
                elif op[0] == "any":
                    result = yield env.any_of(
                        [env.timeout(d, value=d) for d in op[1]]
                    )
                    note(name, step, ("any", sorted(result.values())))
                elif op[0] == "all":
                    result = yield env.all_of(
                        [env.timeout(d, value=d) for d in op[1]]
                    )
                    note(name, step, ("all", sorted(result.values())))
                elif op[0] == "nested":
                    inner = env.all_of(
                        [env.timeout(d, value=d) for d in op[2]]
                    )
                    result = yield env.any_of(
                        [env.timeout(op[1], value=op[1]), inner]
                    )
                    note(name, step, ("nested", len(result)))
                elif op[0] == "spawn":
                    child = env.process(
                        run_ops(env, op[1], f"{name}.c{step}")
                    )
                    if op[2]:
                        yield child
                    note(name, step, ("spawn", op[2]))
                elif op[0] == "interrupt":
                    yield env.timeout(op[2])
                    target = registry[op[1] % len(registry)]
                    me = env.active_process
                    if target.is_alive and target is not me:
                        target.interrupt(f"by {name}")
                        note(name, step, ("interrupted", op[1]))
                    else:
                        note(name, step, ("interrupt-skip", op[1]))
                elif op[0] == "fire":
                    yield env.timeout(op[2])
                    event = events[op[1]]
                    if not event.triggered:
                        event.succeed(op[3])
                        note(name, step, ("fired", op[1]))
                    else:
                        note(name, step, ("fire-skip", op[1]))
                elif op[0] == "wait":
                    event = events[op[1]]
                    if event.triggered:
                        note(name, step, ("wait-skip", op[1]))
                    else:
                        value = yield event
                        note(name, step, ("waited", value))
            except Interrupt as exc:
                note(name, step, ("caught", str(exc.cause)))
        return name

    for index, ops in enumerate(program["procs"]):
        registry.append(env.process(run_ops(env, ops, f"p{index}")))

    clocks = []
    for checkpoint in program.get("checkpoints", CHECKPOINTS):
        env.run(until=checkpoint)
        clocks.append(env.now)

    # Waiters on never-fired events stay pending in both kernels alike.
    finals = [
        (proc.value if proc.triggered else "pending") for proc in registry
    ]
    return {"trace": trace, "clocks": clocks, "finals": finals}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(30))
def test_random_schedules_match_reference(seed, kernel):
    program = make_program(seed)
    assert interpret(kernel, program) == interpret(reference, program)


def _boundary_delay(rng):
    """Deadlines hugging the wheel's slot and page boundaries.

    The wheel buckets deadlines by ``int(time)`` into 256-slot pages
    (levels at 256 and 65536 ticks).  These delays land entries exactly
    on, a hair before, and a hair after those boundaries — the places
    where staging, cascading and straggler handling must still produce
    the reference order.
    """
    base = rng.choice([1.0, 255.0, 256.0, 257.0, 511.0, 512.0])
    jitter = rng.choice([-0.001, 0.0, 0.001, 0.5, 0.999])
    return round(max(0.001, base + jitter), 6)


BOUNDARY_CHECKPOINTS = (200.0, 256.0, 300.0, 512.0, 1500.0)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(10))
def test_slot_boundary_schedules_match_reference(seed, kernel):
    program = make_program(
        seed,
        delay_fn=_boundary_delay,
        checkpoints=BOUNDARY_CHECKPOINTS,
    )
    assert interpret(kernel, program) == interpret(reference, program)


def _long_horizon_delay(rng):
    """Deadlines spanning level 1, level 2 and the overflow heap."""
    scale = rng.choice([1.0, 300.0, 70_000.0, 20_000_000.0])
    return round(rng.uniform(0.1, 40.0) * scale, 3)


LONG_CHECKPOINTS = (300.0, 70_000.0, 20_000_000.0, 900_000_000.0)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(10))
def test_long_horizon_schedules_match_reference(seed, kernel):
    program = make_program(
        seed,
        delay_fn=_long_horizon_delay,
        checkpoints=LONG_CHECKPOINTS,
    )
    assert interpret(kernel, program) == interpret(reference, program)


def make_cancel_storm_program(seed, n_procs=8):
    """Every op is a wide AnyOf race: ~75% of all timers get cancelled.

    This is the mass-cancellation shape — tombstones dominate the queues,
    compaction fires repeatedly mid-run, and the survivors must still pop
    in exactly the reference order.
    """
    rng = random.Random(seed)
    procs = []
    for index in range(n_procs):
        ops = []
        for _ in range(rng.randint(3, 6)):
            if rng.random() < 0.2:
                ops.append(("interrupt", rng.randrange(n_procs),
                            round(rng.uniform(0.1, 5.0), 3)))
            else:
                ops.append(("any", [
                    round(rng.uniform(0.1, 60.0), 3)
                    for _ in range(rng.randint(3, 4))
                ]))
        procs.append(ops)
    return {"n_events": 1, "procs": procs}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(10))
def test_cancel_storm_schedules_match_reference(seed, kernel):
    program = make_cancel_storm_program(seed)
    assert interpret(kernel, program) == interpret(reference, program)


@pytest.mark.parametrize("kernel", KERNELS)
def test_interrupt_heavy_schedule_matches_reference(kernel):
    # Every process tries to interrupt its neighbour while racing timers —
    # the worst case for wait-cancellation bookkeeping.
    program = {
        "n_events": 1,
        "procs": [
            [("any", [5.0, 50.0]), ("interrupt", (i + 1) % 4, 2.0),
             ("timeout", 3.0), ("any", [1.0, 90.0, 90.5])]
            for i in range(4)
        ],
    }
    assert interpret(kernel, program) == interpret(reference, program)


@pytest.mark.parametrize("kernel", KERNELS)
def test_shared_event_races_match_reference(kernel):
    # One event shared by three AnyOf races and a direct waiter: losing
    # timers may be cancelled, the shared event must not be.
    program = {
        "n_events": 2,
        "procs": [
            [("wait", 0), ("timeout", 1.0)],
            [("nested", 4.0, [2.0, 30.0]), ("wait", 0)],
            [("fire", 0, 12.0, 7), ("any", [3.0, 80.0])],
            [("any", [6.0, 70.0]), ("fire", 1, 1.0, 8), ("wait", 1)],
        ],
    }
    assert interpret(kernel, program) == interpret(reference, program)
