"""Golden bit-identity of seeded fast-backend runs.

The expected values were captured from the implementation before the
matching kernel was collapsed onto one gather/average/scatter path and
the end-of-instance evaluation stopped copying state rows.  Any change
to the kernels, the evaluation or the RNG stream that alters a seeded
run by a single bit fails here.
"""

import hashlib

import numpy as np
import pytest

import repro.api
from repro.core.config import Adam2Config
from repro.workloads.boinc import boinc_ram_mb

N_NODES = 4000
POINTS = 50
ROUNDS = 30
INSTANCES = 3
SEED = 7

#: variant -> (run options, join mode)
VARIANTS = {
    "matching": ({"exchange": "matching"}, "symmetric"),
    "matching-churn": ({"exchange": "matching", "churn_rate": 0.002}, "symmetric"),
    "matching-literal": ({"exchange": "matching"}, "literal"),
    "matching-float32": ({"exchange": "matching", "dtype": "float32"}, "symmetric"),
    "sequential": ({"exchange": "sequential"}, "symmetric"),
}

#: variant -> (per instance (entire max, entire avg, points max, points
#: avg), size estimate, SHA-256 of the final per-node fractions, SHA-256
#: of the consensus estimate's fractions)
GOLDEN = {
    "matching": (
        [
            (0.26260483257006856, 0.006352358547927629, 0.002924946300685405, 0.00037377602423980817),
            (0.20380403570830824, 0.004457655756734397, 0.002871929630637149, 0.00047703306070357565),
            (0.08112947537004947, 0.003931705364331834, 0.002835218384861893, 0.0005009554296843707),
        ],
        4000.193068887783,
        "6a7d69f9f7e2b0e5f0259aa486e0dc12f4de72d89cbe966d24abd71ceb68e54f",
        "8c6cb1c60cfc65985cc9b5284abdedf5506c5b7f5ebaf5d0b9f89a5176c383b3",
    ),
    "matching-churn": (
        [
            (0.2612690456816927, 0.00686960417979691, 0.007775945067405754, 0.0010650347114486496),
            (0.2085179593116045, 0.0069842063039943095, 0.007542747318744658, 0.0011222388814804878),
            (0.08486024589836597, 0.006189301817675908, 0.008994649410247801, 0.0009698015470905496),
        ],
        3965.2489179727313,
        "304b23fff628095ea4513a992f113a498387cd03bd0350d393dbfe80d1b4d0f5",
        "800848e9d648a80a5912944314b09182bf6989a62745d99d13335fe6dfb073d6",
    ),
    "matching-literal": (
        [
            (0.2542815229762346, 0.0112909384191918, 0.018361280404031288, 0.006425224304199215),
            (0.21494305882602932, 0.015611289292858353, 0.0384894074946642, 0.015545121813049324),
            (0.04916227316856384, 0.013679588032227886, 0.03134217947721479, 0.014737030732421871),
        ],
        32.96580286548512,
        "2f9b7d8e49ae5d2b0ee02b9afddca4e6104ab79b86fbce9f554d5f969fc383e4",
        "0dd9a2fdd9259f0822373bd5cdf02fa12131a0e55ebab5dcb3ef3b7d4cc81415",
    ),
    "matching-float32": (
        [
            (0.2626048801839352, 0.0063523598266715334, 0.0029249658584594718, 0.00037377614268541327),
            (0.203804007768631, 0.004457655382166054, 0.0028719091415405074, 0.0004770331073069573),
            (0.08112948095798492, 0.00393170574444335, 0.0028352165222167436, 0.0005009553784263135),
        ],
        4000.19287109375,
        "3a03fd73369351be4b693d5491a7106a0ed9c8c8a7daeb4bb21798a4745b3eec",
        "17263f78e2902c78ff7fa8305d736b7f7f668a3afe3468614c3264910439f17a",
    ),
    "sequential": (
        [
            (0.26146115541548537, 0.006113404152253277, 7.589948019526283e-07, 5.367763074155627e-08),
            (0.20250022944180573, 0.004342230514899404, 6.798400698504459e-07, 7.413437307758336e-08),
            (0.07987521672420098, 0.0038399201124808104, 8.58297862615931e-07, 8.932029241428992e-08),
        ],
        4000.0000299630583,
        "963fad1ac8bf1a2c70a7a2a90b0ce7241aed7d8e73e0aa7970a64c2913133b9a",
        "2ff35f35beeaafe66b68eb684f09d28dac35a8dfcd6eb326d49db03e03f36b7d",
    ),
}


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_seeded_run_is_bit_identical(variant):
    options, join_mode = VARIANTS[variant]
    config = Adam2Config(points=POINTS, rounds_per_instance=ROUNDS, join_mode=join_mode)
    result = repro.api.run(
        config, boinc_ram_mb(), backend="fast",
        n_nodes=N_NODES, instances=INSTANCES, seed=SEED, **options,
    )
    errors, size, final_sha, estimate_sha = GOLDEN[variant]
    assert [
        (
            s.errors_entire.maximum, s.errors_entire.average,
            s.errors_points.maximum, s.errors_points.average,
        )
        for s in result.instances
    ] == errors
    assert result.estimate is not None
    assert result.estimate.system_size == size
    assert sha256(result.instances[-1].raw.fractions) == final_sha
    assert sha256(result.estimate.fractions) == estimate_sha
