#!/usr/bin/env python3
"""Build the canonical W-algebra generators for a rigid symplectic orbit and
print them with their augmentation character.

Usage: python scripts/wgen_demo.py [partition] [eps]
"""

import sys

from orbitforge.rings import format_rational
from orbitforge.partitions import Partition
from orbitforge.orbits import build_nilpotent
from orbitforge.enveloping import WSetup, augmentation_character


def label(setup, word):
    if not word:
        return "1"
    parts = []
    for k in word:
        if k < setup.z_start:
            parts.append(f"x{k}")
        elif k < setup.m_start:
            parts.append(f"z{k - setup.z_start}")
        else:
            parts.append(f"m{k - setup.m_start}")
    return " ".join(parts)


def main(partition: str, eps: int) -> None:
    lam = Partition.parse(partition)
    setup = WSetup(build_nilpotent(lam, eps))
    setup.build_all_thetas()
    for k in sorted(setup.thetas):
        th = setup.thetas[k]
        terms = " + ".join(
            f"{format_rational(c)}*{label(setup, w)}" for w, c in sorted(th.value.items())
        )
        print(f"Theta(x{k})  [degree {th.degree}, Kazhdan {th.degree + 2}]")
        print(f"  = {terms}")
    char = augmentation_character(setup)
    print("augmentation character:",
          {f"x{k}": format_rational(v) for k, v in sorted(char.items()) if v != 0} or "0")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "2,1,1",
         int(sys.argv[2]) if len(sys.argv) > 2 else -1)
