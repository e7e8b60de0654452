"""Fault-tolerant pricing: retries, quarantine, and transport recovery.

A pricing service at production scale sees failing calls, hung
chunks, NaN market data and failed host<->device transfers as routine
events — the data-centre FPGA deployment literature treats recoverable
transport errors as a first-class concern, and the paper's own kernel
IV.A discussion is a story about host/device interaction fragility.
This example drives every failure mode deterministically:

1. a transient pricing fault healed by retry (prices stay
   bit-identical),
2. a poison option isolated by quarantine bisection — the other N-1
   prices still bit-identical, the failure reported structurally,
3. a hung chunk on the engine's threads, given up at the chunk
   timeout — a thread cannot be preempted, so its options come back
   NaN with ChunkTimeoutError records instead of being retried
   (process isolation and restarts belong to the sharded serving tier),
4. a simulated PCIe transfer fault on the OpenCL command queue,
   recovered with a seeded retry/backoff policy.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro import EngineConfig, PricingEngine, generate_batch
from repro.core import simulate_kernel_b_batch
from repro.engine import (
    ALWAYS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TransportFaultInjector,
    retry_call,
)
from repro.errors import TransportFaultError
from repro.opencl import Context, Device, DeviceType

STEPS = 64  # keep the example quick; the paper's full depth is 1024


def reliability(stats) -> str:
    """The run's fault-tolerance counters, one line."""
    return (f"chunks={stats.chunks} retries={stats.retries} "
            f"timeouts={stats.timeouts} "
            f"quarantined_options={stats.quarantined_options}")


def main() -> None:
    options = list(generate_batch(n_options=128, seed=20140324).options)
    reference = simulate_kernel_b_batch(options, STEPS)
    print(f"Workload: {len(options)} American options, N={STEPS}")

    # -- 1. transient fault: retry heals it --------------------------------
    plan = FaultPlan(specs=(
        FaultSpec(option_index=7, kind=FaultKind.RAISE, attempts=1),
    ))
    config = EngineConfig(chunk_options=16, max_retries=2,
                          backoff_base_s=0.001)
    with PricingEngine(kernel="iv_b", config=config, faults=plan) as engine:
        print(f"\n{engine.describe()}")
        healed = engine.run(options, steps=STEPS)
    print(f"Transient pricing fault: {reliability(healed.stats)}")
    assert np.array_equal(healed.prices, reference)
    print("  -> retried and bit-identical, no failures reported")

    # -- 2. poison option: quarantined, batch completes --------------------
    plan = FaultPlan(specs=(
        FaultSpec(option_index=42, kind=FaultKind.NAN, attempts=ALWAYS),
    ))
    with PricingEngine(kernel="iv_b", config=config, faults=plan) as engine:
        degraded = engine.run(options, steps=STEPS)
    print(f"\nPoison option: {reliability(degraded.stats)}")
    for record in degraded.failures:
        print(f"  failure: option {record.index} / {record.error} after "
              f"{record.attempts} attempts / {record.message}")
    mask = np.ones(len(options), dtype=bool)
    mask[42] = False
    assert np.array_equal(degraded.prices[mask], reference[mask])
    assert np.isnan(degraded.prices[42])
    print(f"  -> {mask.sum()} of {len(options)} prices bit-identical; the "
          f"poison option came back NaN instead of failing the batch")

    # -- 3. hung chunk: given up at the timeout ---------------------------
    plan = FaultPlan(specs=(
        FaultSpec(option_index=3, kind=FaultKind.HANG, hang_s=0.5),
    ))
    threaded = EngineConfig(workers=2, chunk_options=16,
                            chunk_timeout_s=0.1, backoff_base_s=0.001)
    with PricingEngine(kernel="iv_b", config=threaded,
                       faults=plan) as engine:
        hung = engine.run(options, steps=STEPS)
    print(f"\nHung chunk on 2 threads: {reliability(hung.stats)}")
    given_up = [record.index for record in hung.failures]
    print(f"  options {given_up[0]}..{given_up[-1]}: "
          f"{hung.failures[0].error}")
    assert given_up == list(range(16))
    assert np.array_equal(hung.prices[16:], reference[16:])
    print(f"  -> the other {len(options) - 16} prices bit-identical; the "
          f"hung thread's late result is dropped")

    # -- 4. transport fault on the simulated OpenCL queue ------------------
    device = Device("demo", DeviceType.ACCELERATOR, compute_units=2,
                    max_work_group_size=256)
    injector = TransportFaultInjector(seed=7, fail_transfers=(0,))
    context = Context(device)
    queue = context.create_queue(fault_injector=injector)
    buffer = context.create_buffer(1024)
    payload = np.linspace(0.0, 1.0, 1024)

    retries = []
    retry_call(
        lambda: queue.enqueue_write_buffer(buffer, payload),
        policy=RetryPolicy(max_retries=3, backoff_base_s=0.001),
        key="host-write",
        retry_on=(TransportFaultError,),
        on_retry=lambda attempt, exc: retries.append(str(exc)),
    )
    print(f"\nTransport fault injection on the command queue:")
    print(f"  first enqueue failed with: {retries[0]}")
    print(f"  retry recovered it; device buffer now holds "
          f"{injector.transfer_calls - injector.transfer_faults} "
          f"successful transfer(s)")
    assert np.array_equal(buffer._host_read(), payload)
    print("\nEvery failure above replays identically: fault plans and "
          "transport schedules are pure functions of their seeds.")


if __name__ == "__main__":
    main()
