"""Alias kept for the frozen benchmark: perfbench/layers.py imports it."""

from .hostshard import HostShardPool

PolitenessPool = HostShardPool
