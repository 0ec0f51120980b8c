"""Golden digest of a small canonical sweep: the cost model must not drift.

Job keys fingerprint a job's *inputs* (kind, scheme, workload, configs) but
not the cost model that turns them into a report, so a change to any kernel,
format or simulator statistic would otherwise keep serving stale cached
reports. This test pins the SHA-256 of the canonical report payloads of a
small fixed sweep — SpMM at dim 32 on M4 and M6 under every SpMM scheme,
plus SpMV on M4 under the main schemes — so any such change fails here
until the author also bumps ``CACHE_SCHEMA_VERSION`` (which invalidates
every cached report) and re-pins the digest.
"""

import hashlib
import json

from repro.eval.experiments import MAIN_SCHEMES, kernel_sweep_specs
from repro.eval.runner import CACHE_SCHEMA_VERSION, execute_job, job_key

SPMM_SCHEMES = ("taco_csr", "mkl_csr", "ideal_csr", "taco_bcsr", "smash_sw", "smash_hw")

#: Pinned for ``CACHE_SCHEMA_VERSION`` 1.
GOLDEN_SCHEMA = 1
GOLDEN_DIGEST = "43a14d1a670d7339352f0095aa44227757dfd24e0342db23110e179235c9e513"


def _sweep_jobs():
    spmm, spmm_sim = kernel_sweep_specs("spmm", keys=("M4", "M6"), dim=32, schemes=SPMM_SCHEMES)
    spmv, spmv_sim = kernel_sweep_specs("spmv", keys=("M4",), schemes=MAIN_SCHEMES)
    return [spec.to_job(sim=spmm_sim) for spec in spmm.specs] + [
        spec.to_job(sim=spmv_sim) for spec in spmv.specs
    ]


def sweep_digest() -> str:
    """SHA-256 over ``(job key, canonical report payload)`` in key order."""
    pairs = sorted(
        (job_key(job), json.dumps(execute_job(job).to_dict(), sort_keys=True, separators=(",", ":")))
        for job in _sweep_jobs()
    )
    sha = hashlib.sha256()
    for key, text in pairs:
        sha.update(key.encode("ascii"))
        sha.update(text.encode("utf-8"))
    return sha.hexdigest()


def test_sweep_covers_every_scheme():
    jobs = _sweep_jobs()
    assert len(jobs) == 2 * len(SPMM_SCHEMES) + len(MAIN_SCHEMES)
    assert {job.scheme for job in jobs if job.kind == "spmm"} == set(SPMM_SCHEMES)


def test_golden_digest_unchanged():
    value = sweep_digest()
    assert CACHE_SCHEMA_VERSION == GOLDEN_SCHEMA and value == GOLDEN_DIGEST, (
        f"the modelled statistics of the golden sweep changed (digest {value}, "
        f"pinned {GOLDEN_DIGEST} for schema {GOLDEN_SCHEMA}, current schema "
        f"{CACHE_SCHEMA_VERSION}). If the cost-model change is intended, bump "
        "CACHE_SCHEMA_VERSION in repro/eval/runner.py so cached reports are "
        "invalidated, then set GOLDEN_SCHEMA and GOLDEN_DIGEST here to the new "
        "values. If it is not intended, the change broke the cost model."
    )
