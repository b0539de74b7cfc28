"""Golden pin of the classical VQE/QAOA pre-optimisation.

Nelder-Mead trajectories are sensitive to the last bit of every energy, so
any change to the energy evaluation (ansatz evolution, Pauli expectation,
parameter rebinding) that is not bit-identical moves these values.  They
were captured before the compiled energy evaluation replaced the dense one
and are compared through ``float.hex()``: exact, no tolerance.  Never
regenerate them to make a change pass.
"""

import pytest

from repro.benchmarks import VanillaQAOABenchmark, VQEBenchmark, ZZSwapQAOABenchmark

INSTANCES = {
    "vqe(4,1)": lambda: VQEBenchmark(4, 1),
    "vqe(4,2)": lambda: VQEBenchmark(4, 2),
    "vanilla_qaoa(4)": lambda: VanillaQAOABenchmark(4),
    "vanilla_qaoa(5)": lambda: VanillaQAOABenchmark(5),
    "zzswap_qaoa(4)": lambda: ZZSwapQAOABenchmark(4),
    "zzswap_qaoa(5)": lambda: ZZSwapQAOABenchmark(5),
}

#: instance -> (ideal_energy().hex(), [p.hex() for p in optimal_parameters()])
GOLDEN = {
    "vqe(4,1)": (
        "-0x1.1ec84b6c40a5fp+2",
        [
            "0x1.3a5811a5c27e1p-7",
            "-0x1.a9489384bf8acp+0",
            "0x1.2c4ddba30bd28p-3",
            "-0x1.7c8ef12072c3ap-2",
            "0x1.8fb0fe3118637p-2",
            "-0x1.17d4ee5b99ca4p-5",
            "0x1.2d4503e8f7595p-1",
            "0x1.960eca3da6c00p-6",
            "0x1.e6be363c5e002p-1",
            "-0x1.352bf7acb5758p-4",
            "0x1.5df4e490fdd1cp-1",
            "0x1.8df081632b28ep-7",
            "0x1.32947be5afbfap-1",
            "-0x1.6e766f45ba984p-6",
            "0x1.d459d6582a4fap-2",
            "-0x1.7422b11734138p-6",
        ],
    ),
    "vqe(4,2)": (
        "-0x1.24146a35725b0p+2",
        [
            "-0x1.50de018abade4p-5",
            "-0x1.629899baf74e6p+0",
            "0x1.3c9c195fa71aep-4",
            "-0x1.f105249991810p+0",
            "0x1.17248aedf8a2ep-1",
            "0x1.0c2e4e2471ad8p-1",
            "0x1.fce97007526cbp-2",
            "-0x1.707fa31c69dbcp-4",
            "0x1.340f53d3590dbp-2",
            "-0x1.a7de1d52df61cp-3",
            "0x1.65005aa045918p-2",
            "-0x1.61daa1d456e86p-2",
            "0x1.3f80dc2d38d7ap-1",
            "-0x1.26885f0afb177p-2",
            "0x1.11b6ca2d96a0fp-2",
            "-0x1.eb0d47ac1cbbep-4",
            "0x1.f039e382e3076p-1",
            "-0x1.8c73f8e42d6a4p-5",
            "0x1.3f28374376a76p-1",
            "0x1.95938c35fcb6fp-3",
            "-0x1.08ae254171430p-3",
            "-0x1.c80e910127bbcp-5",
            "0x1.311a105a56571p-2",
            "0x1.74bbee1527d96p-3",
        ],
    ),
    "vanilla_qaoa(4)": (
        "-0x1.09cbc0e0200f6p+2",
        [
            "0x1.717b5cb433334p-2",
            "0x1.0827b05386666p+0",
        ],
    ),
    "vanilla_qaoa(5)": (
        "-0x1.dc9e15718a088p+1",
        [
            "0x1.4bd84cee6eb33p+0",
            "-0x1.24a259a688ccdp+0",
        ],
    ),
    "zzswap_qaoa(4)": (
        "-0x1.09cbc0e0200f5p+2",
        [
            "0x1.717b5cb433334p-2",
            "0x1.0827b05386666p+0",
        ],
    ),
    "zzswap_qaoa(5)": (
        "-0x1.dc9e15718a08bp+1",
        [
            "0x1.4bd84cee6eb33p+0",
            "-0x1.24a259a688ccdp+0",
        ],
    ),
}


@pytest.mark.parametrize("instance", sorted(GOLDEN))
def test_optimisation_is_bit_identical(instance):
    benchmark = INSTANCES[instance]()
    parameters = [float(p).hex() for p in benchmark.optimal_parameters()]
    energy, expected_parameters = GOLDEN[instance]
    assert parameters == expected_parameters
    assert float(benchmark.ideal_energy()).hex() == energy
