"""Checkpoint subsystem: codec exactness, atomic files, bit-exact resume."""

import json
import math
import os

import numpy as np
import pytest

from repro.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    CheckpointError,
    checkpoint_exists,
    decode_array,
    decode_state,
    encode_array,
    encode_state,
    read_checkpoint,
    write_checkpoint,
)
from repro.sph import NumericProblem, Simulation, run_instrumented
from repro.sph.init import SedovConfig, make_sedov, make_sedov_eos
from repro.sph.neighbors import mirror_missing
from repro.systems import Cluster, by_name


# ---------------------------------------------------------------------------
# array codec
# ---------------------------------------------------------------------------


def test_float_arrays_round_trip_bit_exact(rng):
    arr = rng.standard_normal(257)
    arr[3] = float("inf")
    arr[5] = float("nan")
    out = decode_array(encode_array(arr))
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert np.array_equal(
        out.view(np.uint64), arr.view(np.uint64)
    ), "float payload must be byte-identical, NaN bits included"


def test_int_arrays_narrow_losslessly():
    arr = np.array([-5, 1_000_000], dtype=np.int64)
    enc = encode_array(arr)["__ndarray__"]
    assert enc["store_dtype"] == "int32"
    out = decode_array({"__ndarray__": enc})
    assert out.dtype == np.int64 and np.array_equal(out, arr)


def test_int_arrays_too_wide_stay_unnarrowed():
    arr = np.array([-1, 2**40], dtype=np.int64)
    enc = encode_array(arr)["__ndarray__"]
    assert "store_dtype" not in enc
    assert np.array_equal(decode_array({"__ndarray__": enc}), arr)


def test_large_index_arrays_delta_encode():
    csr = np.sort(np.random.default_rng(1).integers(0, 999, 50_000))
    enc = encode_array(csr)["__ndarray__"]
    assert "store_delta" in enc
    out = decode_array({"__ndarray__": enc})
    assert out.dtype == csr.dtype and np.array_equal(out, csr)


def test_bool_arrays_pack_to_bits(rng):
    mask = rng.random((7, 13)) > 0.4
    enc = encode_array(mask)["__ndarray__"]
    assert enc["store_dtype"] == "packbits"
    # 91 flags -> 12 packed bytes -> 16 base64 chars.
    assert len(enc["data"]) == 16
    out = decode_array({"__ndarray__": enc})
    assert out.dtype == np.bool_ and np.array_equal(out, mask)


def test_empty_and_scalar_shapes_round_trip():
    for arr in (np.zeros(0), np.zeros((0, 2), dtype=np.int64),
                np.ones((2, 3, 4))):
        out = decode_array(encode_array(arr))
        assert out.shape == arr.shape and np.array_equal(out, arr)


def test_encode_state_rejects_unserializable():
    with pytest.raises(CheckpointError, match="object"):
        encode_state({"bad": object()})


def test_state_tree_round_trip():
    tree = {
        "a": 1,
        "b": [1.5, None, "x", (2, 3)],
        "c": {"nested": np.arange(4)},
        "inf": float("inf"),
    }
    out = decode_state(json.loads(json.dumps(encode_state(tree))))
    assert out["a"] == 1
    assert out["b"][:3] == [1.5, None, "x"]
    assert out["b"][3] == [2, 3]  # tuples travel as lists
    assert np.array_equal(out["c"]["nested"], np.arange(4))
    assert math.isinf(out["inf"])


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "c.json"
    assert not checkpoint_exists(path)
    write_checkpoint(path, {"steps_done": 3, "arr": np.arange(5)})
    assert checkpoint_exists(path)
    state = read_checkpoint(path)
    assert state["steps_done"] == 3
    assert np.array_equal(state["arr"], np.arange(5))
    # Atomic idiom: no temp file survives a successful write.
    assert list(tmp_path.glob("*.tmp")) == []


def test_read_rejects_corrupt_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{torn")
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_read_rejects_wrong_kind_and_schema(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema": CHECKPOINT_SCHEMA, "kind": "x"}))
    with pytest.raises(CheckpointError, match="kind"):
        read_checkpoint(path)
    path.write_text(
        json.dumps({"schema": CHECKPOINT_SCHEMA + 99,
                    "kind": CHECKPOINT_KIND})
    )
    with pytest.raises(CheckpointError, match="schema"):
        read_checkpoint(path)


def test_read_missing_file_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# simulation restore: bit-exact vs uninterrupted
# ---------------------------------------------------------------------------

STEPS = 8


def _model_sim():
    return Simulation(Cluster(by_name("miniHPC"), 2), "SedovBlast", 10_000.0)


def test_model_mode_resume_is_bit_exact(tmp_path):
    ref = _model_sim().run(STEPS)

    ckpt = str(tmp_path / "c.json")
    first = _model_sim()
    res_a = first.run(STEPS // 2, checkpoint_every=STEPS // 2,
                      checkpoint_path=ckpt)
    assert res_a.checkpoints_written == 1

    second = _model_sim()
    res_b = second.run(STEPS, restore_from=ckpt)
    assert res_b.resumed_from_step == STEPS // 2
    assert res_b.steps == STEPS
    assert res_b.gpu_energy_j == ref.gpu_energy_j
    assert res_b.elapsed_s == ref.elapsed_s
    assert res_b.dt_history == ref.dt_history


def test_checkpoint_cadence_and_counters(tmp_path):
    ckpt = str(tmp_path / "c.json")
    res = _model_sim().run(6, checkpoint_every=2, checkpoint_path=ckpt)
    assert res.checkpoints_written == 3
    assert read_checkpoint(ckpt)["steps_done"] == 6


def test_checkpoint_every_requires_path():
    with pytest.raises(ValueError, match="checkpoint_path"):
        _model_sim().run(2, checkpoint_every=1)


def test_fingerprint_mismatch_refuses_restore(tmp_path):
    ckpt = str(tmp_path / "c.json")
    _model_sim().run(4, checkpoint_every=2, checkpoint_path=ckpt,
                     checkpoint_fingerprint="unit-a")
    with pytest.raises(CheckpointError, match="fingerprint"):
        _model_sim().run(4, restore_from=ckpt,
                         checkpoint_fingerprint="unit-b")


def test_restore_beyond_requested_steps_refused(tmp_path):
    ckpt = str(tmp_path / "c.json")
    _model_sim().run(6, checkpoint_every=6, checkpoint_path=ckpt)
    with pytest.raises(CheckpointError, match="beyond"):
        _model_sim().run(4, restore_from=ckpt)


def test_workload_mismatch_refuses_restore(tmp_path):
    ckpt = str(tmp_path / "c.json")
    _model_sim().run(4, checkpoint_every=4, checkpoint_path=ckpt)
    other = Simulation(Cluster(by_name("miniHPC"), 2), "Turbulence", 10_000.0)
    with pytest.raises(CheckpointError, match="workload"):
        other.run(4, restore_from=ckpt)


def _numeric_sim(n_ranks=2):
    cfg = SedovConfig(nside=6, seed=11)
    parts = make_sedov(cfg)
    numeric = NumericProblem(
        particles=parts, n_ranks=n_ranks, eos=make_sedov_eos(cfg),
        box_size=cfg.box_size, skin=0.2,
    )
    return Simulation(
        Cluster(by_name("miniHPC"), n_ranks), "SedovBlast", parts.n, numeric=numeric
    )


def _digest(sim):
    parts = sim.numeric.particles
    return tuple(
        np.asarray(getattr(parts, f)).tobytes()
        for f in ("x", "vx", "u", "h")
    )


@pytest.mark.parametrize(
    "n_ranks, legacy_backend_key",
    [
        pytest.param(2, False, id="2-ranks"),
        pytest.param(8, False, id="8-ranks"),
        pytest.param(8, True, id="8-ranks-legacy-comm-backend-key"),
    ],
)
def test_numeric_resume_is_bit_exact_with_verlet_skin(
    tmp_path, n_ranks, legacy_backend_key
):
    """The wide neighbor list survives the snapshot: resumed FP
    summation order matches the uninterrupted run exactly. Older
    checkpoints recorded a ``comm_backend`` key; restore ignores it."""
    ref = _numeric_sim(n_ranks)
    ref_res = ref.run(6)

    ckpt = str(tmp_path / "c.json")

    class _Killed(RuntimeError):
        pass

    def kill(step):
        # on_step fires before the periodic snapshot of the same step,
        # so killing at 4 leaves the step-3 snapshot as the survivor.
        if step == 4:
            raise _Killed()

    killed = _numeric_sim(n_ranks)
    with pytest.raises(_Killed):
        killed.run(6, checkpoint_every=3, checkpoint_path=ckpt,
                   on_step=kill)
    state = read_checkpoint(ckpt)
    assert "comm_backend" not in state
    if legacy_backend_key:
        write_checkpoint(ckpt, {**state, "comm_backend": "process"})

    resumed = _numeric_sim(n_ranks)
    res = resumed.run(6, restore_from=ckpt)
    assert res.resumed_from_step == 3
    assert res.gpu_energy_j == ref_res.gpu_energy_j
    assert _digest(resumed) == _digest(ref)


def _numeric_state(sim):
    """Counters and wide Verlet list of a finished numeric run."""
    numeric = sim.numeric
    wide = numeric._wide_nlist
    return (
        numeric.neighbor_rebuilds,
        numeric.neighbor_reuses,
        numeric.neighbor_rows_searched,
        wide.offsets.tobytes(),
        wide.neighbors.tobytes(),
    )


def _rows_after_first_step(sim):
    """on_step hook recording rows searched once the first resumed
    step is done."""
    seen = []

    def hook(step):
        if not seen:
            seen.append(sim.numeric.neighbor_rows_searched)

    return seen, hook


def test_numeric_resume_keeps_per_row_verlet_state(tmp_path):
    """Row budgets, search-time h and the previous positions are in the
    checkpoint: the resumed run rebuilds the same wide list with the
    same counters as the uninterrupted one."""
    ref = _numeric_sim()
    ref_res = ref.run(6)
    assert 0 < ref.numeric.neighbor_rows_searched

    ckpt = str(tmp_path / "c.json")
    _numeric_sim().run(3, checkpoint_every=3, checkpoint_path=ckpt)
    numeric = read_checkpoint(ckpt)["numeric"]
    n = len(numeric["row_budget"])
    assert numeric["search_h"].shape == (n,)
    assert numeric["previous_positions"].shape == (n, 3)
    assert not any(k.startswith("rebuild_") for k in numeric)

    resumed = _numeric_sim()
    res = resumed.run(6, restore_from=ckpt)
    assert res.resumed_from_step == 3
    assert res.gpu_energy_j == ref_res.gpu_energy_j
    assert _digest(resumed) == _digest(ref)
    assert _numeric_state(resumed) == _numeric_state(ref)


def test_numeric_resume_from_global_rebuild_checkpoint_searches_all_rows(
    tmp_path,
):
    """Checkpoints from before the per-row budgets hold one global
    rebuild reference (``rebuild_x/y/z/h``); the first resumed step
    searches every row and the physics still matches bit for bit."""
    ref = _numeric_sim()
    ref_res = ref.run(6)

    ckpt = str(tmp_path / "c.json")
    _numeric_sim().run(3, checkpoint_every=3, checkpoint_path=ckpt)
    state = read_checkpoint(ckpt)
    numeric = state["numeric"]
    positions = numeric.pop("previous_positions")
    for k, axis in enumerate("xyz"):
        numeric[f"rebuild_{axis}"] = positions[:, k].copy()
    numeric["rebuild_h"] = numeric.pop("search_h")
    del numeric["row_budget"], numeric["neighbor_rows_searched"]
    write_checkpoint(ckpt, state)

    resumed = _numeric_sim()
    seen, hook = _rows_after_first_step(resumed)
    res = resumed.run(6, restore_from=ckpt, on_step=hook)
    assert res.resumed_from_step == 3
    assert seen == [resumed.numeric.particles.n]
    assert res.gpu_energy_j == ref_res.gpu_energy_j
    assert _digest(resumed) == _digest(ref)


def test_legacy_mirror_mask_checkpoint_resumes_bit_exact(tmp_path):
    """Checkpoints from before the mirror mask was derived from
    distances carry a ``wide_mirror_absent`` key; restore ignores it
    and the resumed run still matches the uninterrupted one."""
    ref = _numeric_sim()
    ref_res = ref.run(6)

    ckpt = str(tmp_path / "c.json")
    killed = _numeric_sim()
    killed.run(3, checkpoint_every=3, checkpoint_path=ckpt)
    state = read_checkpoint(ckpt)
    assert state["schema"] == CHECKPOINT_SCHEMA == 1
    numeric = state["numeric"]
    assert "wide_mirror_absent" not in numeric
    offsets = numeric["wide_offsets"]
    wide_i = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    numeric["wide_mirror_absent"] = mirror_missing(
        wide_i, numeric["wide_neighbors"]
    )
    write_checkpoint(ckpt, state)

    resumed = _numeric_sim()
    res = resumed.run(6, restore_from=ckpt)
    assert res.resumed_from_step == 3
    assert res.gpu_energy_j == ref_res.gpu_energy_j
    assert _digest(resumed) == _digest(ref)


def test_run_instrumented_passthrough(tmp_path):
    ckpt = str(tmp_path / "c.json")
    cluster = Cluster(by_name("miniHPC"), 2)
    res = run_instrumented(
        cluster, "SedovBlast", 10_000.0, 4,
        checkpoint_every=2, checkpoint_path=ckpt,
    )
    assert res.checkpoints_written == 2
    assert checkpoint_exists(ckpt)


def test_mid_step_checkpoint_refused():
    sim = _model_sim()
    sim.initialize()
    sim.profiler.open_window()
    sim.profiler.before_function("MomentumEnergyIAD", 0)
    with pytest.raises(RuntimeError, match="open measurements"):
        sim.state_dict(4, 0)
