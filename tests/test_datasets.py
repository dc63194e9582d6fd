import re

import numpy as np
import pytest

from baryflow.datasets import (
    AffineMap,
    DomainSpec,
    default_affine_family,
    load_csv,
    location_scatter_family,
    pd_affine_family,
    save_csv,
    swiss_roll,
    share_classes,
    synthetic_domain_specs,
    synthetic_msda,
    write_table,
)
from baryflow.measures import EmpiricalMeasure


class TestSwissRoll:
    def test_noiseless_radius_equals_parameter(self):
        m = swiss_roll(400, noise_std=0.0, seed=0)
        t = np.linalg.norm(m.points, axis=1)
        assert np.all(t >= 1.5 * np.pi - 1e-9)
        assert np.all(t <= 4.5 * np.pi + 1e-9)

    def test_labels_are_quantile_bins_of_parameter(self):
        m = swiss_roll(1000, noise_std=0.0, seed=1)
        t = np.linalg.norm(m.points, axis=1)
        labels = m.hard_labels()
        # bins are contiguous in t: max t of bin c < min t of bin c+1
        for c in range(3):
            assert t[labels == c].max() < t[labels == c + 1].min()
        counts = np.bincount(labels, minlength=4)
        assert counts.min() >= 200

    def test_deterministic_csv(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(swiss_roll(1000, 0.1, seed=7), p1)
        save_csv(swiss_roll(1000, 0.1, seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_class(self):
        m = swiss_roll(10, seed=0, n_classes=1)
        assert m.n_classes == 1 and np.all(m.hard_labels() == 0)


class TestAffineFamilies:
    def test_identity_map(self):
        m = swiss_roll(50, seed=0)
        out = location_scatter_family(m, [AffineMap.identity(2)])[0]
        assert np.array_equal(out.points, m.points)
        assert np.array_equal(out.label_logits, m.label_logits)

    def test_translation_preserves_distances(self):
        m = swiss_roll(50, seed=1)
        shift = AffineMap(np.eye(2), np.array([3.0, -2.0]))
        out = location_scatter_family(m, [shift])[0]
        from baryflow.ot import squared_distances
        assert np.allclose(squared_distances(out.points, out.points),
                           squared_distances(m.points, m.points))

    def test_scaling_doubles_distances(self):
        m = swiss_roll(30, seed=2)
        out = location_scatter_family(m, [AffineMap(2 * np.eye(2), np.zeros(2))])[0]
        from baryflow.ot import squared_distances
        assert np.allclose(squared_distances(out.points, out.points),
                           4 * squared_distances(m.points, m.points))

    def test_pd_family_is_symmetric_pd(self):
        for m in pd_affine_family(5, dim=3, seed=0):
            assert m.symmetric_pd

    def test_default_family_rotation_angles(self):
        maps = default_affine_family(4, seed=0)
        assert len(maps) == 4
        for m in maps:
            # scaled rotations: A^T A = s^2 I
            ata = m.a.T @ m.a
            assert np.allclose(ata, ata[0, 0] * np.eye(2))
            assert abs(np.linalg.norm(m.b) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        m = swiss_roll(10, seed=3)
        with pytest.raises(ValueError):
            location_scatter_family(m, [AffineMap.identity(3)])


class TestSyntheticMsda:
    def test_shapes_and_separation_of_labels(self):
        specs = synthetic_domain_specs(n_samples=128, seed=0)
        data = synthetic_msda(specs, seed=0)
        assert len(data.sources) == 2
        assert all(s.n == 128 for s in data.sources)
        assert data.target_features.n == 128
        assert data.target_labels.shape == (128,)
        assert data.target_features.label_logits is None

    def test_class_priors_multinomial(self):
        specs = synthetic_domain_specs(n_samples=3000, seed=1)
        data = synthetic_msda(specs, seed=1)
        counts = np.bincount(data.sources[0].hard_labels(), minlength=3)
        assert np.max(np.abs(counts / 3000 - 1 / 3)) <= 0.04

    def test_identity_shifts_source_only_accuracy(self):
        # all domains identical and classes well separated: a pooled 1-NN
        # classifier transfers almost perfectly
        base = synthetic_domain_specs(n_samples=256, class_std=0.6, seed=2)[0]
        specs = [DomainSpec(base.class_means, base.class_chols,
                            AffineMap.identity(2), 256) for _ in range(3)]
        data = synthetic_msda(specs, seed=2)
        from baryflow.pipeline import _nn_predict
        pooled_x = np.vstack([s.points for s in data.sources])
        pooled_y = np.concatenate([s.hard_labels() for s in data.sources])
        pred = _nn_predict(pooled_x, pooled_y, data.target_features.points)
        assert (pred == data.target_labels).mean() >= 0.95

    def test_mismatched_specs_rejected(self):
        s1 = synthetic_domain_specs(n_classes=3, seed=0)[0]
        s2 = synthetic_domain_specs(n_classes=2, seed=0)[0]
        with pytest.raises(ValueError):
            synthetic_msda([s1, s2], seed=0)


class TestCsvIo:
    def test_write_table_cells(self, tmp_path):
        p = tmp_path / "t.csv"
        write_table(p, ["name", "n", "x"],
                    [("a", 3, 0.1), ("b", -1, np.float64(1) / 3)])
        assert p.read_bytes() == (b"name,n,x\r\na,3,0.10000000000000001\r\n"
                                  b"b,-1,0.33333333333333331\r\n")

    def test_round_trip_byte_identical(self, tmp_path):
        m = swiss_roll(100, 0.05, seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(m, p1)
        save_csv(load_csv(p1, label_column="label"), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unlabeled_round_trip(self, tmp_path):
        m = EmpiricalMeasure(np.random.default_rng(0).standard_normal((20, 3)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(m, p1)
        loaded = load_csv(p1)
        assert isinstance(loaded, EmpiricalMeasure)
        save_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_label_column_named(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="category"):
            load_csv(p, label_column="category")

    def test_header_only_is_empty_measure(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("f0,f1\n")
        with pytest.raises(ValueError, match="empty measure"):
            load_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("f0,f1\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(p)

    def test_non_numeric_feature_reports_line_and_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("f0,f1\n1.0,abc\n")
        with pytest.raises(ValueError, match="line 2.*f1"):
            load_csv(p)

    def test_string_labels_mapped_sorted(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("f0,label\n1.0,dog\n2.0,cat\n3.0,dog\n")
        m = load_csv(p, label_column="label")
        assert m.class_names == ("cat", "dog")
        assert np.array_equal(m.hard_labels(), [1, 0, 1])

    @pytest.mark.parametrize("label", ["01", "+1", " 2", "2 "])
    def test_non_canonical_integer_label_rejected(self, tmp_path, label):
        # "01" and "1" must not merge into one class id
        p = tmp_path / "x.csv"
        p.write_text(f"f0,label\n1.0,1\n2.0,{label}\n3.0,0\n")
        with pytest.raises(ValueError, match=re.escape(f"x.csv: label '{label}'")):
            load_csv(p, label_column="label")

    def test_non_integer_names_may_look_numeric(self, tmp_path):
        # with one non-integer label, "01" is a class name like any other
        p = tmp_path / "x.csv"
        p.write_text("f0,label\n1.0,01\n2.0,1\n3.0,cat\n")
        assert load_csv(p, label_column="label").class_names == ("01", "1", "cat")

    def test_string_labels_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.write_text("f0,label\n1.0,dog\n2.0,cat\n")
        save_csv(load_csv(p1, label_column="label"), p2)
        assert p2.read_text() == "f0,label\n1,dog\n2,cat\n"


class TestShareClasses:
    @staticmethod
    def load(tmp_path, name, labels):
        path = tmp_path / f"{name}.csv"
        path.write_text("f0,label\n" + "".join(
            f"{i}.5,{c}\n" for i, c in enumerate(labels)))
        return load_csv(path, label_column="label"), str(path)

    def test_one_id_per_name_across_files(self, tmp_path):
        labels = (["cat", "dog"], ["dog", "fish"], ["cat", "dog", "fish"])
        loaded = [self.load(tmp_path, f"m{i}", l) for i, l in enumerate(labels)]
        shared = share_classes(*zip(*loaded))
        for m, (orig, _), names in zip(shared, loaded, labels):
            assert m.class_names == ("cat", "dog", "fish")
            assert [m.class_names[c] for c in m.hard_labels()] == names
            assert np.array_equal(m.points, orig.points)
        dog_ids = {int(m.hard_labels()[names.index("dog")])
                   for m, names in zip(shared, labels)}
        assert dog_ids == {1}
        # the union is sorted, whichever file comes first
        dog_first = share_classes(*zip(loaded[1], loaded[0]))
        assert dog_first[0].class_names == ("cat", "dog", "fish")

    def test_shared_label_set_unchanged(self, tmp_path):
        loaded = [self.load(tmp_path, "a", ["cat", "dog"]),
                  self.load(tmp_path, "b", ["dog", "cat", "dog"])]
        shared = share_classes(*zip(*loaded))
        assert all(s is m for s, (m, _) in zip(shared, loaded))

    def test_integer_labels_unchanged(self, tmp_path):
        loaded = [self.load(tmp_path, "a", [0, 2]), self.load(tmp_path, "b", [1])]
        shared = share_classes(*zip(*loaded))
        assert all(s is m for s, (m, _) in zip(shared, loaded))

    def test_names_and_integers_rejected_naming_both(self, tmp_path):
        loaded = [self.load(tmp_path, "named", ["cat", "dog"]),
                  self.load(tmp_path, "numbered", [0, 1])]
        with pytest.raises(ValueError, match="named.csv.*numbered.csv"):
            share_classes(*zip(*loaded))


class TestDomainSpecValidation:
    def test_rejects_bad_chol(self):
        with pytest.raises(ValueError):
            DomainSpec(np.zeros((2, 2)), np.zeros((2, 2, 2)),
                       AffineMap.identity(2), 10)

    def test_triangularity_is_scale_free(self):
        means = np.zeros((1, 2))
        with pytest.raises(ValueError, match="lower-triangular"):
            DomainSpec(means, [[[1e-6, 5e-9], [0.0, 1e-6]]],
                       AffineMap.identity(2), 10)
        spec = DomainSpec(means, [[[1e6, 1e-7], [0.0, 1e6]]],
                          AffineMap.identity(2), 10)
        assert np.array_equal(spec.class_chols[0], np.diag([1e6, 1e6]))

    def test_rejects_too_few_samples(self):
        chols = np.repeat(np.eye(2)[None], 2, axis=0)
        with pytest.raises(ValueError):
            DomainSpec(np.zeros((2, 2)), chols, AffineMap.identity(2), 1)
