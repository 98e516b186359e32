import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc.data import (
    DatasetFormatError,
    FeatureStream,
    Segment,
    StreamAnnotation,
    SynthConfig,
    annotations_from_json,
    generate_dataset,
    load_annotations,
    load_dataset,
    read_feature_file,
    read_json,
    save_dataset,
    write_feature_file,
)
from oracles import JSON_VALUES, corrupted_bytes

SMALL = SynthConfig(count=10, num_frames=32, d_audio=4, d_visual=4,
                    min_segments=1, max_segments=2, min_len=3, max_len=8)


def test_segment_rejects_empty_interval():
    with pytest.raises(ValueError):
        Segment(5, 5)
    with pytest.raises(ValueError):
        Segment(-1, 3)


def test_annotation_rejects_overlapping_segments():
    with pytest.raises(ValueError, match="overlap"):
        StreamAnnotation("x", 20, audio_fake=[Segment(0, 5), Segment(3, 8)])


def test_annotation_rejects_out_of_range_segment():
    with pytest.raises(ValueError, match="exceeds"):
        StreamAnnotation("x", 10, visual_fake=[Segment(5, 12)])


def test_infeasible_config_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        SynthConfig(num_frames=32, max_segments=3, min_len=8, max_len=16)


def test_mix_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        SynthConfig(p_audio=0.5, p_visual=0.5, p_both=0.5)


def test_zero_segments_config_gives_all_real():
    cfg = SynthConfig(count=5, num_frames=16, d_audio=3, d_visual=3,
                      min_segments=0, max_segments=0, min_len=2, max_len=4)
    for _, ann in generate_dataset(cfg, seed=7):
        assert ann.audio_fake == [] and ann.visual_fake == []


def test_same_seed_same_dataset():
    a = generate_dataset(SMALL, seed=3)
    b = generate_dataset(SMALL, seed=3)
    for (sa, aa), (sb, ab) in zip(a, b):
        assert np.array_equal(sa.audio, sb.audio)
        assert np.array_equal(sa.visual, sb.visual)
        assert aa == ab


def test_different_seed_different_features():
    a = generate_dataset(SMALL, seed=3)
    b = generate_dataset(SMALL, seed=4)
    assert not np.array_equal(a[0][0].audio, b[0][0].audio)


def test_generated_annotations_satisfy_invariants():
    for _, ann in generate_dataset(SMALL, seed=11):
        for segs in (ann.audio_fake, ann.visual_fake):
            for prev, cur in zip(segs, segs[1:]):
                assert prev.end <= cur.start
            for seg in segs:
                assert 0 <= seg.start < seg.end <= ann.num_frames


def test_delta_zero_leaves_distribution_unshifted():
    plain = SynthConfig(count=4, num_frames=32, d_audio=4, d_visual=4,
                        min_segments=1, max_segments=2, min_len=3, max_len=8,
                        delta=0.0)
    clips = generate_dataset(plain, seed=5)
    # Fake spans exist in the annotation but the feature stream carries no
    # trace of them: regenerating with fake injection disabled must match.
    for stream, ann in clips:
        fake = np.zeros(ann.num_frames, dtype=bool)
        for seg in ann.audio_fake + ann.visual_fake:
            fake[seg.start:seg.end] = True
        real_mean = stream.audio[~fake].mean() if (~fake).any() else 0.0
        fake_mean = stream.audio[fake].mean() if fake.any() else real_mean
        assert abs(real_mean - fake_mean) < 1.0  # same distribution, noise-level gap


def test_fake_fraction_of_default_config():
    cfg = SynthConfig(count=1000)
    clips = generate_dataset(cfg, seed=42)
    fracs = []
    for _, ann in clips:
        fake = np.zeros(ann.num_frames, dtype=bool)
        for seg in ann.audio_fake + ann.visual_fake:
            fake[seg.start:seg.end] = True
        fracs.append(fake.mean())
    measured = float(np.mean(fracs))
    assert 0.1 <= measured <= 0.5
    # Segments are globally disjoint, so the analytic expectation is
    # E[#segments] * E[length] / T.
    expected = (cfg.min_segments + cfg.max_segments) / 2 \
        * (cfg.min_len + cfg.max_len) / 2 / cfg.num_frames
    assert measured == pytest.approx(expected, rel=0.05)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_generation_respects_segment_bounds(seed):
    for _, ann in generate_dataset(
        SynthConfig(count=2, num_frames=24, d_audio=3, d_visual=3,
                    min_segments=0, max_segments=3, min_len=2, max_len=8),
        seed=seed,
    ):
        merged = sorted(ann.audio_fake + ann.visual_fake)
        for seg in merged:
            assert 0 <= seg.start < seg.end <= 24


def test_roundtrip_empty_dataset(tmp_path):
    save_dataset(tmp_path / "d", [])
    assert load_dataset(tmp_path / "d") == []


def test_roundtrip_bit_exact(tmp_path):
    clips = generate_dataset(SynthConfig(count=100, num_frames=16, d_audio=3,
                                         d_visual=5, min_segments=0, max_segments=2,
                                         min_len=2, max_len=4), seed=9)
    save_dataset(tmp_path / "d", clips)
    loaded = load_dataset(tmp_path / "d")
    assert len(loaded) == len(clips)
    for (s0, a0), (s1, a1) in zip(clips, loaded):
        assert np.array_equal(s0.audio, s1.audio)
        assert np.array_equal(s0.visual, s1.visual)
        assert a0 == a1


def test_save_is_byte_deterministic(tmp_path):
    clips = generate_dataset(SMALL, seed=21)
    save_dataset(tmp_path / "a", clips)
    save_dataset(tmp_path / "b", clips)
    for rel in ["manifest.json", "annotations.json", f"features/{clips[0][1].id}.bin"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_truncated_feature_file_is_parse_error(tmp_path):
    clips = generate_dataset(SMALL, seed=2)
    save_dataset(tmp_path / "d", clips)
    victim = tmp_path / "d" / "features" / f"{clips[0][1].id}.bin"
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    with pytest.raises(DatasetFormatError, match="truncated at byte"):
        load_dataset(tmp_path / "d")


def test_bad_magic_is_parse_error(tmp_path):
    clips = generate_dataset(SMALL, seed=2)
    save_dataset(tmp_path / "d", clips)
    victim = tmp_path / "d" / "features" / f"{clips[0][1].id}.bin"
    data = bytearray(victim.read_bytes())
    data[:4] = b"NOPE"
    victim.write_bytes(bytes(data))
    with pytest.raises(DatasetFormatError, match="magic"):
        load_dataset(tmp_path / "d")


def test_version_mismatch_is_error(tmp_path):
    clips = generate_dataset(SMALL, seed=2)
    save_dataset(tmp_path / "d", clips)
    manifest = tmp_path / "d" / "manifest.json"
    obj = json.loads(manifest.read_text())
    obj["version"] = 99
    manifest.write_text(json.dumps(obj))
    with pytest.raises(DatasetFormatError, match="version"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("modality, frame, value", [
    ("audio", 0, np.nan), ("audio", 17, np.inf), ("visual", 31, -np.inf),
])
def test_non_finite_feature_value_is_parse_error(tmp_path, modality, frame, value):
    clips = generate_dataset(SMALL, seed=2)
    save_dataset(tmp_path / "d", clips)
    victim = tmp_path / "d" / "features" / f"{clips[0][1].id}.bin"
    data = bytearray(victim.read_bytes())
    offset = 20 + 4 * (frame * SMALL.d_audio + 1)  # column 1 of `frame`
    if modality == "visual":
        offset = 20 + 4 * (SMALL.num_frames * SMALL.d_audio + frame * SMALL.d_visual + 1)
    data[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
    victim.write_bytes(bytes(data))
    message = f"{victim}: non-finite {modality} feature value at frame {frame}$"
    with pytest.raises(DatasetFormatError, match=message):
        read_feature_file(victim)
    with pytest.raises(DatasetFormatError, match=message):
        load_dataset(tmp_path / "d")


def test_malformed_annotations_json_is_parse_error(tmp_path):
    clips = generate_dataset(SMALL, seed=2)
    save_dataset(tmp_path / "d", clips)
    (tmp_path / "d" / "annotations.json").write_text('[{"id": "x", ')
    with pytest.raises(DatasetFormatError, match="byte"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("payload, message", [
    (b'{"id": "\xff"}', "not UTF-8 at byte 8"),
    (b"[" * 100_000, "JSON nested too deeply"),
], ids=["non-utf8", "deep-nesting"])
def test_read_json_rejects_bad_text_naming_the_file(tmp_path, payload, message):
    path = tmp_path / "a.json"
    path.write_bytes(payload)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: {message}")):
        read_json(path)


MANIFEST_FAULTS = {
    "array_manifest": (lambda m, ids: m["clips"], "expected a JSON object"),
    "no_clips": (lambda m, ids: {"version": m["version"]}, "'clips' must be a JSON array"),
    "clips_not_list": (lambda m, ids: dict(m, clips={"id": ids[0]}),
                       "'clips' must be a JSON array"),
    "entry_not_object": (lambda m, ids: dict(m, clips=["features/x.bin"]),
                         r"clips\[0\]: expected a JSON object"),
    "no_id": (lambda m, ids: dict(m, clips=[{"path": f"features/{ids[0]}.bin"}]),
              r"clips\[0\]: 'id' must be a string"),
    "no_path": (lambda m, ids: dict(m, clips=[{"id": ids[0]}]),
                r"clips\[0\]: 'path' must be a string"),
    "path_not_string": (lambda m, ids: dict(m, clips=[{"id": ids[0], "path": 3}]),
                        r"clips\[0\]: 'path' must be a string"),
    "path_escapes_split": (lambda m, ids: dict(m, clips=[{"id": ids[0], "path": "../outside.bin"}]),
                           r"clips\[0\]: path '\.\./outside\.bin' resolves outside"),
    "absolute_path": (lambda m, ids: dict(m, clips=[{"id": ids[0], "path": "/etc/hostname"}]),
                      r"clips\[0\]: path '/etc/hostname' resolves outside"),
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_malformed_manifest_names_the_file(tmp_path, fault):
    mutate, message = MANIFEST_FAULTS[fault]
    clips = generate_dataset(SMALL, seed=2)
    save_dataset(tmp_path / "d", clips)
    ids = [ann.id for _, ann in clips]
    # A valid feature file just outside the split: only the path check stops it.
    (tmp_path / "outside.bin").write_bytes((tmp_path / "d" / f"features/{ids[0]}.bin").read_bytes())
    manifest = tmp_path / "d" / "manifest.json"
    manifest.write_text(json.dumps(mutate(json.loads(manifest.read_text()), ids)))
    with pytest.raises(DatasetFormatError, match=message) as err:
        load_dataset(tmp_path / "d")
    assert str(manifest) in str(err.value)


# -- annotations file ----------------------------------------------------------

GOOD_RECORD = {"id": "a", "num_frames": 12, "audio_fake": [[0, 4]], "visual_fake": [[1, 3]]}


def record(**changes):
    return dict(GOOD_RECORD, **changes)


@pytest.mark.parametrize("raw, message", [
    ({"id": "a"}, "expected a JSON array of annotations"),
    ([5], r"record 0: expected a JSON object"),
    ([record(id=["x"])], r"record 0: 'id' must be a string"),
    ([{k: v for k, v in GOOD_RECORD.items() if k != "id"}], r"record 0: 'id' must be a string"),
    ([record(), record()], r"record 1: duplicate id 'a'"),
    ([record(num_frames=12.7)], r"record 0: 'num_frames' must be an integer >= 1"),
    ([record(num_frames=12.0)], r"record 0: 'num_frames' must be an integer >= 1"),
    ([record(num_frames=-3)], r"record 0: 'num_frames' must be an integer >= 1"),
    ([record(num_frames=0)], r"record 0: 'num_frames' must be an integer >= 1"),
    ([record(num_frames=True)], r"record 0: 'num_frames' must be an integer >= 1"),
    ([record(num_frames="12")], r"record 0: 'num_frames' must be an integer >= 1"),
    ([record(audio_fake={"0": 4})], r"record 0: 'audio_fake' must be a JSON array"),
    ([{k: v for k, v in GOOD_RECORD.items() if k != "visual_fake"}],
     r"record 0: 'visual_fake' must be a JSON array"),
    ([record(audio_fake=[[0.7, 4]])], r"record 0: audio_fake\[0\]: expected integer frames"),
    ([record(visual_fake=[[True, 3]])], r"record 0: visual_fake\[0\]: expected integer frames"),
    ([record(audio_fake=[[0, 4, 5]])], r"record 0: audio_fake\[0\]: expected integer frames"),
    ([record(audio_fake=[4])], r"record 0: audio_fake\[0\]: expected integer frames"),
    ([record(audio_fake=[[4, 4]])], r"record 0: audio_fake\[0\]: expected integer frames"),
    ([record(audio_fake=[[-1, 4]])], r"record 0: audio_fake\[0\]: expected integer frames"),
    ([record(audio_fake=[[0, 13]])], r"record 0: .*exceeds num_frames=12"),
    ([record(audio_fake=[[0, 4], [3, 6]])], r"record 0: .*overlap or are unsorted"),
], ids=[
    "root-object", "record-not-object", "id-list", "id-missing", "duplicate-id",
    "frames-fraction", "frames-float", "frames-negative", "frames-zero", "frames-bool",
    "frames-string", "segments-object", "segments-missing", "start-fraction",
    "start-bool", "row-long", "row-not-list", "empty-segment", "negative-start",
    "past-num-frames", "overlapping",
])
def test_annotations_reader_rejects_malformed_records(tmp_path, raw, message):
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(DatasetFormatError, match=message) as err:
        load_annotations(path)
    assert str(err.value).startswith(f"{path}: ")


def test_annotations_reader_accepts_valid_records():
    raw = [record(), record(id="b", audio_fake=[], visual_fake=[])]
    anns = annotations_from_json(raw, "a.json")
    assert [a.id for a in anns] == ["a", "b"]
    assert anns[0].num_frames == 12
    assert anns[0].audio_fake == [Segment(0, 4)] and anns[0].visual_fake == [Segment(1, 3)]
    assert anns[1].audio_fake == [] and anns[1].visual_fake == []


# Near-valid payloads, so that the segment and annotation checks are reached too.
SEGMENT_ROWS = st.lists(
    st.lists(st.integers(-1, 14) | st.floats(-1, 14) | JSON_VALUES, min_size=1, max_size=3),
    max_size=3,
) | JSON_VALUES
RECORDS = st.lists(
    st.fixed_dictionaries({
        "id": st.sampled_from(["a", "b"]) | JSON_VALUES,
        "num_frames": st.integers(-1, 14) | JSON_VALUES,
        "audio_fake": SEGMENT_ROWS,
        "visual_fake": SEGMENT_ROWS,
    }),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(raw=JSON_VALUES | RECORDS)
def test_annotations_reader_raises_only_dataset_format_error(raw):
    try:
        anns = annotations_from_json(raw, "a.json")
    except DatasetFormatError:
        return
    assert len({a.id for a in anns}) == len(anns)
    for a in anns:
        assert type(a.id) is str and type(a.num_frames) is int and a.num_frames >= 1
        for seg in a.audio_fake + a.visual_fake:
            assert type(seg.start) is int and type(seg.end) is int
            assert 0 <= seg.start < seg.end <= a.num_frames


@pytest.fixture(scope="module")
def feature_file(tmp_path_factory):
    """A small feature file's path and bytes."""
    rng = np.random.default_rng(5)
    path = tmp_path_factory.mktemp("fuzz") / "clip.bin"
    write_feature_file(path, FeatureStream(audio=rng.normal(size=(8, 3)),
                                           visual=rng.normal(size=(8, 2))))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_feature_reader_raises_only_dataset_format_error(feature_file, data):
    path, valid = feature_file
    path.write_bytes(data.draw(corrupted_bytes(valid, header=20)))
    try:
        stream = read_feature_file(path)
    except DatasetFormatError:
        return
    assert np.isfinite(stream.audio).all() and np.isfinite(stream.visual).all()
