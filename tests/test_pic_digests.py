"""Pinned PIC state digests.

Deposition scatters thousands of per-particle contributions into each
grid cell, and floating-point addition is not associative: any change
to the order in which those contributions are summed moves the grid
currents by a few ULPs and so the state digest.  These digests were
recorded with the reference ``np.add.at`` scatter; every faster
scatter must reproduce them bit for bit, and so must both drivers of
the loop: the kernel-graph engine behind ``run_pic`` and the host loop
``PicSimulation.step``.
"""

import pytest

from repro.api import PicConfig, run_pic
from repro.backends.registry import queue_for
from repro.fields.interpolation import Shape
from repro.pic import (PicEngine, PicSimulation, build_scenario,
                       pic_state_digest, scenario_names)
from repro.pic.simulation import DEPOSITIONS

# Dense enough that cells collect several contributions per window
# point, so a reordered sum shows in every digest below.
N = 512
STEPS = 3

SCENARIO_DIGESTS = {
    "laser-slab":
        "e552f5aacc3be7cba2bb13c7d64e69b98a74425b08dea29e02b02af1348d5e9e",
    "magnetic-mirror":
        "538b28f635246f798a12213f6f32d6a9e95ea381e5cd3a8f9fe7aff2cbdcbd6c",
    "relativistic-beam":
        "21f9bf717cd578c84dd3d8fe032cc7b9bcf0628923df5a74a1c139f02fc3192f",
}

DIRECT_DIGEST = (
    "77bb53ed0629e9cfeb3c6289fb8dd0d58232114c67be074c7043c566177ebb39")

TSC_TWO_SPECIES_DIGEST = (
    "d9d44549135a222a751645daf7edef9eebd7ed5916390238a18a146e4374dc78")


def run_facade(scenario, **kwargs):
    config = PicConfig(scenario=scenario, n_particles=N, steps=STEPS,
                       warmup=1, seed=0, fusion=True, **kwargs)
    return run_pic(config).digest


def test_every_scenario_is_pinned():
    assert tuple(SCENARIO_DIGESTS) == scenario_names()


def run_host(scenario):
    # The same warmup + measured steps without the kernel graph: the
    # host loop PicSimulation.step must match the engine bit for bit.
    simulation = build_scenario(scenario, n_particles=N, seed=0)
    simulation.run(STEPS + 1)
    return pic_state_digest(simulation)


DRIVERS = [pytest.param(run_facade, scenario, id=scenario)
           for scenario in SCENARIO_DIGESTS] + \
          [pytest.param(run_host, scenario, id=f"{scenario}-host")
           for scenario in SCENARIO_DIGESTS]


@pytest.mark.parametrize("driver,scenario", DRIVERS)
def test_scenario_digest_pinned(driver, scenario):
    assert driver(scenario) == SCENARIO_DIGESTS[scenario]


def test_direct_deposition_digest_pinned():
    assert run_facade("laser-slab", deposition="direct") == DIRECT_DIGEST


def test_tsc_two_species_digest_pinned():
    # Two beams deposit one after the other into one grid, so the
    # second species' scatter starts from a non-zero current.
    first = build_scenario("relativistic-beam", n_particles=N, seed=0)
    second = build_scenario("relativistic-beam", n_particles=N, seed=1)
    simulation = PicSimulation(first.grid,
                               first.ensembles + second.ensembles,
                               first.dt, interpolation=Shape.TSC)
    PicEngine(queue_for("iris-xe-max"), simulation,
              fusion=True).run(STEPS + 1)
    assert pic_state_digest(simulation) == TSC_TWO_SPECIES_DIGEST


@pytest.mark.parametrize("deposition", DEPOSITIONS)
@pytest.mark.parametrize("scenario", scenario_names())
def test_every_driver_agrees_for_every_deposition(scenario, deposition):
    # Few particles over enough steps that some cross the box, so a
    # driver that skipped the periodic wrap would diverge.
    n, seed, warmup, steps = 48, 5, 1, 3

    def simulation():
        return build_scenario(scenario, n_particles=n, seed=seed,
                              deposition=deposition)

    host = simulation()
    host.run(warmup + steps)
    digests = {"host": pic_state_digest(host)}
    for fusion in (True, False):
        lowered = simulation()
        PicEngine(queue_for("iris-xe-max"), lowered,
                  fusion=fusion).run(warmup + steps)
        digests[f"fusion={fusion}"] = pic_state_digest(lowered)
    digests["run_pic"] = run_pic(PicConfig(
        scenario=scenario, n_particles=n, steps=steps, warmup=warmup,
        seed=seed, deposition=deposition)).digest
    assert len(set(digests.values())) == 1, digests
