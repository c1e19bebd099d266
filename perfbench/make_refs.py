"""Write refs.json: stored oracles for the kinds without a closed form.

    python3 perfbench/make_refs.py

Pools of s values (convergent: 1.2 < Re s < 3; continuation: -2 < Re s < 3,
0.3 < Im s < 20), twisted components T_q(s) for q = 4, 8, ..., and the zeta
function of a few cosine-series shapes, all by the mpmath routines of
``oracles.py``.  Before writing, both routines are checked against plain
numpy disc sums at Re s = 3, where truncation at radius 600 leaves ~1e-11.
The file is deterministic; rerunning reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
import oracles  # noqa: E402

COS_SHAPES = {
    "cos:c0=1,c4=0.1": (1.0, 0.0, 0.0, 0.0, 0.1),
    "cos:c0=1,c2=0.15": (1.0, 0.0, 0.15),
}
EISENSTEIN_Q = range(4, 41, 4)
POOL = 16


def _pool(rng, re_lo, re_hi, im_lo, im_hi):
    return [complex(round(rng.uniform(re_lo, re_hi), 6), round(rng.uniform(im_lo, im_hi), 6))
            for _ in range(POOL)]


def _direct(weight, s, radius=600):
    g = np.arange(-radius, radius + 1, dtype=float)
    m, n = np.meshgrid(g, g, indexing="ij")
    keep = (m * m + n * n <= radius * radius) & ((m != 0) | (n != 0))
    m, n = m[keep], n[keep]
    return complex(np.sum(weight(m, n) * np.exp(-s * np.log(m * m + n * n))))


def self_check():
    s = complex(3.0, 1.0)
    for q in (4, 8):
        ref = oracles.twisted_component(q, s)
        d = _direct(lambda m, n: np.exp(1j * q * np.arctan2(n, m)), s)
        print(f"T_{q}({s}): theta {ref:.15g}  direct {d:.15g}  rel {abs(ref - d) / abs(ref):.2e}")
        assert abs(ref - d) <= 1e-9 * abs(ref)
    coeffs = COS_SHAPES["cos:c0=1,c4=0.1"]
    ref = oracles.cosine_zeta(coeffs, s, oracles.twisted_component)
    d = _direct(lambda m, n: (sum(c * np.cos(k * np.arctan2(n, m)) for k, c in enumerate(coeffs))
                              ) ** (2 * s), s)
    print(f"Z_cos({s}): fourier {ref:.15g}  direct {d:.15g}  rel {abs(ref - d) / abs(ref):.2e}")
    assert abs(ref - d) <= 1e-9 * abs(ref)


def main():
    self_check()
    rng = np.random.default_rng(20181001)
    s_conv = _pool(rng, 1.2, 3.0, 0.0, 8.0)
    s_cont = _pool(rng, -2.0, 3.0, 0.3, 20.0)
    cache: dict = {}

    def twisted(q, s):
        if (q, s) not in cache:
            cache[(q, s)] = oracles.twisted_component(q, s)
        return cache[(q, s)]

    cos_zeta = {}
    for name, coeffs in COS_SHAPES.items():
        cos_zeta[name] = {}
        for s in s_conv + s_cont:
            cos_zeta[name][oracles._key(s)] = oracles.cosine_zeta(coeffs, s, twisted)
        print(name, "done", flush=True)
    for q in EISENSTEIN_Q:
        for s in s_conv + s_cont:
            twisted(q, s)
    out = {
        "s_conv": [[s.real, s.imag] for s in s_conv],
        "s_cont": [[s.real, s.imag] for s in s_cont],
        "cos_shapes": {k: list(v) for k, v in COS_SHAPES.items()},
        "twisted": {},
        "cos_zeta": {k: {key: [v.real, v.imag] for key, v in d.items()}
                     for k, d in cos_zeta.items()},
    }
    for (q, s), v in sorted(cache.items(), key=lambda kv: (kv[0][0], kv[0][1].real, kv[0][1].imag)):
        out["twisted"].setdefault(str(q), {})[oracles._key(s)] = [v.real, v.imag]
    assert all(math.isfinite(x) for d in out["twisted"].values() for v in d.values() for x in v)
    oracles.REFS_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote", oracles.REFS_PATH)


if __name__ == "__main__":
    main()
