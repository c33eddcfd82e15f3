"""Concurrent-transmission BFSK link models and a slotted flooding simulator."""

__version__ = "0.1.0"  # every CSV manifest's tool_version; a test keeps pyproject.toml equal
