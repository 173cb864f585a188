"""Exception hierarchy for the repro package.

Every error this package raises for bad input (a spec, a parameter, a
configuration) or for a failure it detects while running derives from
:class:`ReproError`, so callers can catch everything from the library with
a single ``except`` clause while still being able to distinguish the
failure domains below.

Programming errors are the one exception.  They signal a bug in the
calling code rather than bad input, so they stay stdlib exceptions that a
``ReproError`` handler does not swallow:

* ``TypeError`` from an app's ``handle_request`` given another protocol's
  payload (``SoftwareMemcached``, ``LakeKvs``, ``SoftwareNsd``,
  ``EmuDns``): a mis-wired topology delivered the packet.
* ``ValueError`` from a reduction over no samples: ``TimeSeries.mean``
  ("no samples in window"), ``LatencyRecorder.mean``, the recorder's
  percentiles of an empty sequence or outside [0, 100], and the
  scenario builder's ``windowed_mean`` ("no ... samples in window").  The
  caller asked about a window the run never sampled.
* ``KeyError`` from a lookup of something a result does not hold:
  ``ScenarioSweepResult.point``, ``ScenarioResult.host`` and
  ``ScenarioResult.paxos_group``, and the figure tables' ``bar`` and
  ``total``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel.

    Examples: scheduling an event in the past, running a simulator that was
    already stopped, or re-entering :meth:`Simulator.run` from a callback.
    """


class ConfigurationError(ReproError):
    """Raised when a model is constructed with invalid parameters."""


class ExecutorError(ReproError):
    """Raised when the sweep executor's process pool breaks mid-sweep,
    e.g. a worker killed by the operating system for running out of
    memory.  Names the first pinned replay left unanswered."""


class CapacityError(ReproError):
    """Raised when a device is offered load beyond its configured capacity
    in a context where overload is a programming error (e.g. analytic
    steady-state models evaluated past saturation with ``strict=True``)."""


class ProtocolError(ReproError):
    """Raised on malformed application protocol messages (KVS, Paxos, DNS)."""


class PlacementError(ReproError):
    """Raised when an on-demand placement request cannot be satisfied,
    e.g. shifting a workload to a device that is not programmed with it."""


class PowerModelError(ReproError):
    """Raised when a power model is queried in an invalid state, e.g.
    reading RAPL counters from a server model that was never started."""
