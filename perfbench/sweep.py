"""The parts of a workload spec file that the benchmark needs, read apart
from tddmimo: the CSV it names and the cells the sweep must produce."""

from __future__ import annotations

from pathlib import Path


def read_spec(path: Path) -> dict[str, list[str]]:
    """key=value lines; `#` starts a comment, repeated keys and comma lists accumulate."""
    raw: dict[str, list[str]] = {}
    for line in path.read_text().splitlines():
        text = line.split("#", 1)[0].strip()
        if text:
            key, value = (part.strip() for part in text.split("=", 1))
            raw.setdefault(key.lower(), []).extend(value.replace(",", " ").split())
    return raw


class SweepSpec:
    def __init__(self, path: Path):
        self.path = path
        self.raw = raw = read_spec(path)
        self.preset = raw["preset"][0]
        self.output = raw["output"][0]
        self.samples = int(raw["samples"][0])
        schemes = [int(v) for v in raw["scheme"]]
        m_list = [int(v) for v in raw["m"]]
        if self.preset == "fig3":
            self.cell_keys = ("scheme", "T", "M")
            self.cells = [(s, int(t), m) for s in schemes for t in raw["t"] for m in m_list]
        else:
            self.cell_keys = ("scheme", "M")
            self.cells = [(s, m) for s in schemes for m in m_list]
