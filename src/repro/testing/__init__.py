"""Test-support machinery that ships with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
the chaos suites drive the engine with.  It lives under ``src`` (not
``tests/``) because its sites are compiled into the production modules --
a disarmed site costs one module-global ``is None`` check.
"""

from repro.testing.faults import (
    FaultError,
    FaultInjector,
    FaultSpec,
    bit_flip,
    corrupt_file,
    fire,
    inject,
    install,
    installed,
    tear_file,
    uninstall,
)

__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultSpec",
    "bit_flip",
    "corrupt_file",
    "fire",
    "inject",
    "install",
    "installed",
    "tear_file",
    "uninstall",
]
