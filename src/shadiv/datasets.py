"""Embedded curve data so every acceptance run works offline."""

import json
from importlib import resources

from .elliptic import curve

# a-invariants keyed by label; the 121-* labels follow Cremona's tables.
EMBEDDED_AINVS = {
    "121-B1": (0, -1, 1, -7, 10),
    "121-C1": (1, 1, 0, -2, -7),
    "121-C2": (1, 1, 0, -3632, 82757),
    "legendre-test": (0, 0, 0, -1, 0),  # y^2 = x(x-1)(x+1)
    "cm-j1728": (0, 0, 0, 1, 0),  # y^2 = x^3 + x
    "selmer-jacobian": (0, 0, 0, 0, -432 * 60 * 60),  # Jacobian of 3X^3+4Y^3+5Z^3
}

# Selmer's plane cubic and the other nontrivial classes of its Jacobian
SELMER_CUBIC = (3, 4, 5)
SELMER_COMPANIONS = {
    "S'": (1, 5, 12),
    "S''": (1, 4, 15),
    "S'''": (1, 3, 20),
}


def embedded_curve(label):
    return curve(EMBEDDED_AINVS[label], label=label)


def regular_prime_resolutions():
    """Lookup table (shipped as data) of recorded divisibility resolutions."""
    raw = resources.files("shadiv").joinpath("data/regular_prime_resolutions.json")
    payload = json.loads(raw.read_text())
    table = {}
    for entry in payload["entries"]:
        key = (tuple(entry["ainvs"]), entry["p"])
        table[key] = entry
        table[(entry["label"], entry["p"])] = entry
    return table
