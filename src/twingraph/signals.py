"""Signal payloads and their canonical wire encoding."""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple

from .canon import dumps_canonical


class SignalPayload(NamedTuple):
    """What a signal carries from a measurement toward a decider."""

    signal_id: str
    sensor_id: str
    timestamp: str  # ISO 8601 UTC
    value: Decimal
    unit: str
    measured_type: str

    def canonical(self) -> str:
        """Single-line JSON, keys sorted, minimal decimal value; bit-exact
        for equal payloads."""
        return dumps_canonical({
            "measuredType": self.measured_type,
            "sensorId": self.sensor_id,
            "signalId": self.signal_id,
            "timestamp": self.timestamp,
            "unit": self.unit,
            "value": self.value,
        })
