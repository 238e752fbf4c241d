"""Discrete-event simulation kernel: event queue, simulator, components, stats."""

from .component import Component, SharedResource
from .event_queue import EventQueue
from .simulator import SimulationError, Simulator
from .stats import CounterHandle, Histogram, StatsRegistry, geometric_mean

__all__ = [
    "Component",
    "SharedResource",
    "CounterHandle",
    "EventQueue",
    "SimulationError",
    "Simulator",
    "Histogram",
    "StatsRegistry",
    "geometric_mean",
]
