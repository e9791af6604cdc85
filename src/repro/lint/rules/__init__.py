"""Built-in rules; importing this package registers them all."""

from __future__ import annotations

from . import (  # noqa: F401  (imports trigger rule registration)
    rpl001_xp_dispatch,
    rpl002_rng,
    rpl003_spec_hash,
    rpl004_telemetry,
    rpl005_units,
    rpl006_atomic_writes,
)
