"""Fault-tolerance building blocks shared by the parallel mining layers.

The paper's partitioning claim (§1, §5) is only useful in practice if the
partitioned mining survives the failures real clusters exhibit: lost and
corrupted messages, wedged workers, crashed nodes.  This package holds the
generic machinery — none of it knows anything about PLTs:

* :mod:`~repro.robustness.retry` — :class:`RetryPolicy`, deterministic
  exponential backoff with seeded jitter, shared by the wire protocol
  (delays in supersteps) and the multiprocessing executors (delays in
  seconds).
* :mod:`~repro.robustness.framing` — CRC-checksummed message frames with
  sequence numbers, so corruption is *detected* rather than decoded.
* :mod:`~repro.robustness.channel` — :class:`ReliableChannel`, an
  ack/retransmit exactly-once delivery layer over the lossy simulated
  network, with bounded retries and peer-death detection.
* :mod:`~repro.robustness.checkpoint` — :class:`CheckpointStore`, a model
  of stable storage that survives node crashes (the input partitions and
  per-phase node state live here, enabling failover replay).  Checkpoints
  are CRC-framed generations: corruption is detected on read and the
  previous good generation is served instead.
* :mod:`~repro.robustness.governor` — resource governance:
  :class:`MiningBudget` (deadline / itemset cap / memory cap),
  :class:`CancellationToken`, the :class:`ResourceGovernor` that the
  mining hot loops consult at amortized checkpoints, and
  :class:`DegradationPolicy` for falling back to bounded approximate
  answers.

The consumers are :mod:`repro.parallel.distributed` (resilient distributed
mining), :mod:`repro.parallel.executor` (hardened process pools), and —
for governance — every miner behind the
:func:`repro.core.mining.mine_frequent_itemsets` facade; the failure
model itself is injected by :mod:`repro.parallel.faults`.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "RetryPolicy": "retry",
        "Frame": "framing",
        "DATA": "framing",
        "ACK": "framing",
        "encode_data": "framing",
        "encode_ack": "framing",
        "decode_frame": "framing",
        "ReliableChannel": "channel",
        "CheckpointStore": "checkpoint",
        "MiningBudget": "governor",
        "CancellationToken": "governor",
        "ResourceGovernor": "governor",
        "DegradationPolicy": "governor",
        "estimate_conditional_memory": "governor",
        "estimate_topdown_memory": "governor",
    },
)

__all__ = [
    "RetryPolicy",
    "Frame",
    "DATA",
    "ACK",
    "encode_data",
    "encode_ack",
    "decode_frame",
    "ReliableChannel",
    "CheckpointStore",
    "MiningBudget",
    "CancellationToken",
    "ResourceGovernor",
    "DegradationPolicy",
    "estimate_conditional_memory",
    "estimate_topdown_memory",
]
