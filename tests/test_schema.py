import json
import re
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers as oracle  # holds the per-call coercion and key matching
from helpers import SCHEMAS, cat_feature, int_feature, real_feature

from medtab.schema import (KINDS, MISSING, CoercionError, ExtractionSchema, FeatureSpec,
                           LabelSpec, SchemaError, emit_json_schema_block, fold_name,
                           load_schema, schema_from_dict, snake_name, validate_record)


class TestLoadSchema:
    def test_heart_schema_loads_with_eleven_features(self, heart_schema):
        assert len(heart_schema.features) == 11
        assert [f.name for f in heart_schema.features] == [
            "Age", "Sex", "ChestPainType", "RestingBP", "Cholesterol", "FastingBS",
            "RestingECG", "MaxHR", "ExerciseAngina", "Oldpeak", "ST_Slope"]
        assert heart_schema.match_key("max_hr").numeric_range == (60.0, 202.0)
        assert heart_schema.match_key("st_slope").allowed_values == ("Up", "Flat", "Down")
        assert heart_schema.label.positive_value == "1"

    def test_single_feature_schema(self, tmp_path):
        path = tmp_path / "one.schema.json"
        path.write_text(json.dumps({"features": [{"name": "age", "kind": "integer"}]}))
        schema = load_schema(path)
        assert len(schema.features) == 1
        assert schema.label is None

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.schema.json"
        path.write_text(json.dumps({"features": [
            {"name": "age", "kind": "integer"}, {"name": "age", "kind": "real"}]}))
        with pytest.raises(SchemaError, match="duplicate"):
            load_schema(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.schema.json"
        path.write_text('{"features": [,]}')
        with pytest.raises(SchemaError, match=r"line 1 column"):
            load_schema(path)

    def test_invalid_kind_rejected(self):
        with pytest.raises(SchemaError, match="invalid kind"):
            schema_from_dict({"features": [{"name": "x", "kind": "blob"}]})

    def test_empty_allowed_values_rejected(self):
        with pytest.raises(SchemaError, match="allowed_values"):
            schema_from_dict({"features": [{"name": "x", "kind": "categorical",
                                            "allowed_values": []}]})

    def test_numeric_allowed_values_load_as_strings(self):
        schema = schema_from_dict({"features": [{"name": "x", "kind": "categorical",
                                                 "allowed_values": [0, 1.5, "2"]}]})
        assert schema.features[0].allowed_values == ("0", "1.5", "2")

    def test_a_file_of_the_wrong_shape_names_the_field(self, tmp_path):
        path = tmp_path / "bad.schema.json"
        path.write_text(json.dumps({"features": [{"name": "x", "kind": 5}]}))
        with pytest.raises(SchemaError, match=r"bad\.schema\.json: \$\.features\[0\]\.kind "
                                              r"must be a string, got 5$"):
            load_schema(path)

    def test_all_shipped_schemas_load(self):
        for name in ("heart", "hepatitis", "patient_treatment", "stroke", "psych_notes"):
            schema = load_schema(SCHEMAS / f"{name}.schema.json")
            assert len(schema.features) >= 10

    @pytest.mark.parametrize("raw, value", [
        ("yes", "Yes"), (" YES\n", "Yes"), ("no", "No"), ("No", "No"), (True, None),
        ("yess", None), ("", None), (None, None)])
    def test_label_parse_folds_case_and_space(self, raw, value):
        assert LabelSpec("outcome", "Yes", "No").parse(raw) == value

    def test_label_parse_reads_non_strings_as_text(self):
        assert LabelSpec("flag", "true", "false").parse(True) == "true"
        assert LabelSpec("flag", "1", "0").parse(0) == "0"

    def test_label_feature_collision_rejected(self):
        with pytest.raises(SchemaError, match="collides"):
            ExtractionSchema(features=(int_feature("age"),),
                             label=LabelSpec("age", "1", "0"))


class TestPromptKeys:
    """The key the schema block asks a feature for names that feature, and
    no other feature or the label."""

    @staticmethod
    def schema(*features, label=None):
        return schema_from_dict({"features": list(features), "label": label})

    def test_prompt_key_validates(self):
        schema = self.schema({"name": "Cholesterol", "title": "Serum cholesterol",
                              "kind": "integer"})
        assert list(json.loads(emit_json_schema_block(schema))["properties"]) == \
            ["serum_cholesterol"]
        for key in ("serum_cholesterol", "Serum Cholesterol", "Cholesterol"):
            result = validate_record({key: 200}, schema)
            assert (result.values, result.violations) == ({"Cholesterol": 200}, [])

    def test_name_and_prompt_key_in_one_reply_duplicate(self):
        schema = self.schema({"name": "Cholesterol", "title": "Serum cholesterol"})
        result = validate_record({"Cholesterol": "a", "serum_cholesterol": "b"}, schema)
        assert [(v.key, v.reason, v.message) for v in result.violations] == [(
            "serum_cholesterol", "unknown-extra-key",
            "key 'serum_cholesterol' duplicates feature 'Cholesterol'")]

    @pytest.mark.parametrize("features, label, message", [
        ([{"name": "Pressure", "title": "Resting BP"}, {"name": "RestingBP", "title": "Resting Bp"}],
         None, "feature 'Pressure' is asked for as 'resting_bp', which names feature 'RestingBP'"),
        ([{"name": "RestingBP", "title": "Resting Bp"}, {"name": "Pressure", "title": "Resting BP"}],
         None, "feature 'Pressure' is asked for as 'resting_bp', which names feature 'RestingBP'"),
        ([{"name": "Age", "title": "Chol"}, {"name": "Chol", "title": "Age"}],
         None, "feature 'Age' is asked for as 'chol', which names feature 'Chol'"),
        ([{"name": "Outcome", "title": "Heart Disease"}],
         {"name": "HeartDisease", "positive": "1", "negative": "0"},
         "feature 'Outcome' is asked for as 'heart_disease', which names the label 'HeartDisease'"),
    ])
    def test_prompt_key_collision_rejected(self, features, label, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            self.schema(*features, label=label)

    @pytest.mark.parametrize("positive, negative, message", [
        ("Yes", "yes", "value 'yes' reads as 'Yes', not as itself"),
        (" no", "NO ", "value ' no' reads as None, not as itself"),
        ("1", "1", "positive and negative are both '1'"),
        (" yes", "no", "value ' yes' reads as None, not as itself"),
        ("yes", "No\t", "value 'No\\t' reads as None, not as itself"),
    ])
    def test_label_value_that_does_not_read_as_itself_rejected(self, positive, negative,
                                                                message):
        with pytest.raises(SchemaError, match=f"^label 'y': {re.escape(message)}$"):
            self.schema({"name": "x"}, label={"name": "y", "positive": positive,
                                              "negative": negative})

    @pytest.mark.parametrize("allowed, allow_missing, message", [
        (["M", "m"], True, "allowed value 'm' reads as 'M', not as itself"),
        ([" M"], True, "allowed value ' M' cannot be read: Sex: 'M' is not one of the allowed "
                       "values:  M"),
        (["None", "M"], True, "allowed value 'None' reads as Missing, not as itself"),
        (["M", "n/a"], False, "allowed value 'n/a' cannot be read: Sex: value is missing but "
                              "the feature requires one"),
    ])
    def test_allowed_value_that_does_not_coerce_to_itself_rejected(self, allowed,
                                                                    allow_missing, message):
        with pytest.raises(SchemaError, match=f"^feature 'Sex': {re.escape(message)}$"):
            self.schema({"name": "Sex", "kind": "categorical", "allowed_values": allowed,
                         "allow_missing": allow_missing})


class TestEmitJsonSchemaBlock:
    def test_heart_block_matches_prompt_style(self, heart_schema):
        block = emit_json_schema_block(heart_schema)
        assert '"age": {"title": "Age", "description": "Age of the patient [int](years)", ' \
               '"type": "integer"}' in block
        assert block.startswith('{"properties": ')
        assert "\n" not in block

    def test_categorical_maps_to_string_with_values_in_description(self, heart_schema):
        block = emit_json_schema_block(heart_schema)
        sex = json.loads(block)["properties"]["sex"]
        assert sex["type"] == "string"
        assert "[M,F]" in sex["description"]

    def test_empty_description_passes_through(self):
        schema = ExtractionSchema(features=(FeatureSpec(name="x", title="X", kind="integer"),))
        assert json.loads(emit_json_schema_block(schema))["properties"]["x"]["description"] == ""

    def test_block_parses_and_round_trips_names(self, heart_schema):
        props = json.loads(emit_json_schema_block(heart_schema))["properties"]
        assert len(props) == len(heart_schema.features)
        for key in props:
            assert heart_schema.match_key(key) is not None
        assert "max_hr" in props and "chest_pain_type" in props

    def test_real_maps_to_number(self, heart_schema):
        props = json.loads(emit_json_schema_block(heart_schema))["properties"]
        assert props["oldpeak"]["type"] == "number"


class TestCanonicalizeValue:
    """``FeatureSpec.coerce``: the canonical value of a raw one, or the error."""

    def test_numeral_string_to_int(self):
        assert int_feature("Age").coerce("63") == 63

    def test_case_fold_to_canonical_category(self):
        assert cat_feature("Sex", ["M", "F"]).coerce("m") == "M"

    def test_out_of_range_rejected(self):
        spec = int_feature("MaxHR", 60, 202)
        with pytest.raises(CoercionError) as exc:
            spec.coerce(250)
        assert exc.value.reason == "out-of-range"
        assert "between 60 and 202" in str(exc.value)

    def test_null_becomes_missing_when_allowed(self):
        assert real_feature("Oldpeak").coerce(None) is MISSING

    @pytest.mark.parametrize("sentinel", [None, "None", "none", "", "N/A", "n/a", "NaN", "nan"])
    def test_missing_sentinels(self, sentinel):
        assert int_feature("age").coerce(sentinel) is MISSING

    def test_missing_rejected_when_not_allowed(self):
        spec = int_feature("age", allow_missing=False)
        with pytest.raises(CoercionError) as exc:
            spec.coerce(None)
        assert exc.value.reason == "missing-not-allowed"

    def test_integral_real_accepted_for_integer(self):
        assert int_feature("age").coerce(63.0) == 63

    def test_fractional_real_rejected_for_integer(self):
        with pytest.raises(CoercionError):
            int_feature("age").coerce(63.5)

    @pytest.mark.parametrize("raw, value", [("1,5", 1.5), ("12,50", 12.5), (" -0,25 ", -0.25)])
    def test_comma_decimal_accepted_for_real(self, raw, value):
        assert real_feature("x").coerce(raw) == value

    @pytest.mark.parametrize("raw", ["150,000", "1,079", " 240,000 ", "-1,200", ",500"])
    def test_comma_before_three_digits_is_a_type_mismatch(self, raw):
        """It may group thousands ("150,000") or be a decimal point (1.079),
        so it is read as neither."""
        for spec in (int_feature("i"), real_feature("r")):
            with pytest.raises(CoercionError) as exc:
                spec.coerce(raw)
            assert exc.value.reason == "type-mismatch"
            assert str(exc.value) == f"{spec.name}: cannot interpret {raw!r} as a number"

    @pytest.mark.parametrize("schema_file, key, raw", [
        ("heart", "Cholesterol", "240,000"), ("heart", "Cholesterol", "1,200"),
        ("hepatitis", "CREA", "1,079")])
    def test_thousands_grouped_reply_value_gets_a_violation(self, schema_file, key, raw):
        schema = load_schema(SCHEMAS / f"{schema_file}.schema.json")
        result = validate_record({key: raw}, schema)
        assert [(v.key, v.reason) for v in result.violations] == [(key, "type-mismatch")]
        assert key not in result.values

    @pytest.mark.parametrize("raw", ["inf", "INF", "-Infinity", float("inf")])
    def test_non_finite_numbers_rejected(self, raw):
        for spec in (int_feature("i"), real_feature("r")):
            with pytest.raises(CoercionError) as exc:
                spec.coerce(raw)
            assert exc.value.reason == "type-mismatch"

    def test_unknown_category_lists_allowed_values(self):
        with pytest.raises(CoercionError) as exc:
            cat_feature("Sex", ["M", "F"]).coerce("unknown")
        assert exc.value.reason == "unknown-category"
        assert "M, F" in str(exc.value)

    def test_numeric_scalar_matches_category(self):
        assert cat_feature("FastingBS", ["0", "1"]).coerce(1) == "1"

    def test_text_stringifies_scalars(self):
        spec = FeatureSpec(name="note", kind="text")
        assert spec.coerce(12) == "12"
        assert spec.coerce(True) == "true"

    @given(st.one_of(st.integers(-10**6, 10**6),
                     st.floats(allow_nan=False, allow_infinity=False, width=32),
                     st.text(max_size=12), st.none(), st.booleans()))
    def test_idempotent_for_every_kind(self, raw):
        specs = [int_feature("i"), real_feature("r"), cat_feature("c", ["a", "b"]),
                 FeatureSpec(name="t", kind="text")]
        for spec in specs:
            try:
                once = spec.coerce(raw)
            except CoercionError:
                continue
            assert spec.coerce(once) == once or (
                once is MISSING and spec.coerce(once) is MISSING)

    @given(st.one_of(st.text(max_size=8), st.integers(-5, 5), st.none()))
    def test_categorical_closure(self, raw):
        spec = cat_feature("c", ["Up", "Flat", "Down"])
        try:
            value = spec.coerce(raw)
        except CoercionError:
            return
        assert value is MISSING or value in spec.allowed_values


class TestValuesBeyondTheFloatRange:
    """A JSON integer beyond the float range is not a finite number, as
    ``1e400`` is not: a type mismatch, not an OverflowError. An infinite
    float (``1e400`` in JSON) is written as ``str`` writes it for a
    categorical or text feature, not an OverflowError either."""

    @pytest.mark.parametrize("raw", [10 ** 400, -(10 ** 400), int("9" * 309)])
    def test_is_a_type_mismatch(self, raw):
        for spec in (int_feature("Age"), real_feature("Oldpeak")):
            with pytest.raises(CoercionError) as exc:
                spec.coerce(raw)
            assert exc.value.reason == "type-mismatch"
            assert str(exc.value) == f"{spec.name}: cannot interpret {raw!r} as a number"

    def test_largest_float_integer_still_coerces(self):
        raw = int(1.7976931348623157e308)
        assert int_feature("big").coerce(raw) == raw
        assert real_feature("big").coerce(raw) == float(raw)

    @pytest.mark.parametrize("raw", [float("inf"), float("-inf")])
    def test_infinite_float_for_a_category_or_text(self, raw):
        with pytest.raises(CoercionError) as exc:
            cat_feature("Sex", ["M", "F"]).coerce(raw)
        assert exc.value.reason == "unknown-category"
        assert str(exc.value) == f"Sex: {str(raw)!r} is not one of the allowed values: M, F"
        assert FeatureSpec(name="note", kind="text").coerce(raw) == str(raw)


def coerced(coerce, raw):
    """What ``coerce(raw)`` gives: the value's type and repr (so -0.0 and 0.0
    differ), or the CoercionError's reason and message, or any other
    exception's type and message."""
    try:
        value = coerce(raw)
    except CoercionError as e:
        return "coercion-error", e.reason, str(e)
    except (OverflowError, ValueError) as e:
        return type(e).__name__, str(e)
    return "ok", type(value), repr(value)


_PADS = st.sampled_from(["", " ", "  ", "\t", "\n", "\x1c", "\u3000"])
_NUMERALS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4, allow_nan=False).map(lambda x: f"{x:.3f}".replace(".", ",")),
    st.integers(1, 10 ** 6).map(lambda n: f"{n:_}"),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "63.0", "0x10", "1,5,0",
                     "1_", "٣", "-0", "+5", "1.", ".5", "1,", "None", "N/A", "n/a", ""]),
)
_RAW = st.one_of(
    st.none(), st.just(MISSING), st.booleans(),
    st.integers(-10 ** 20, 10 ** 20),
    st.integers(2 ** 53 - 3, 2 ** 53 + 3), st.integers(-(2 ** 53) - 3, -(2 ** 53) + 3),
    st.integers(10 ** 300, 10 ** 400), st.integers(-(10 ** 400), -(10 ** 300)),
    st.floats(), st.sampled_from([0.0, -0.0, 1e16, 5e-324, float("nan"), float("inf")]),
    st.builds(lambda a, n, b: a + n + b, _PADS, _NUMERALS, _PADS),
    st.builds(lambda a, v, b: a + v + b, _PADS,
              st.sampled_from(["M", "m", "F", "Up", "UP", "flat", "0", "1", "yes", " Y", "None"]),
              _PADS),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
)


@st.composite
def feature_specs(draw):
    """The fields of a ``FeatureSpec``, which may name allowed values that
    cannot be read as themselves (``m`` beside ``M``, `` M``, ``None``)."""
    kind = draw(st.sampled_from(KINDS))
    allowed, numeric_range = (), None
    if kind == "categorical":
        allowed = tuple(draw(st.lists(
            st.sampled_from(["M", "F", "m", " M", "Up", "UP", "Flat", "0", "1", "None", "n/a",
                             "yes", "Yes", "Y "]), min_size=1, max_size=5, unique=True)))
    elif kind in ("integer", "real"):
        numeric_range = draw(st.sampled_from([None, (0.0, 120.0), (60.0, 202.0), (-1.5, 2.5),
                                              (0.0, 0.0), (-1e300, 1e300)]))
    return dict(name=draw(st.sampled_from(["Age", "x"])), kind=kind, allowed_values=allowed,
                numeric_range=numeric_range, allow_missing=draw(st.booleans()))


def fields(name, kind, allowed_values=(), numeric_range=None, allow_missing=True):
    return dict(name=name, kind=kind, allowed_values=tuple(allowed_values),
                numeric_range=numeric_range, allow_missing=allow_missing)


class TestCompiledCoercerAgainstOracle:
    """``FeatureSpec.coerce`` is the coercer each spec compiles; the
    per-call version it replaced (tests/helpers.py) is the oracle: the same
    value of the same type, or the same error. A spec loads only when the
    oracle reads each of its allowed values as itself."""

    @settings(max_examples=3000, deadline=None)
    @given(feature_specs(), _RAW)
    @example(fields("Age", "integer"), "٣")
    @example(fields("r", "real"), "-0")
    @example(fields("r", "real"), " 1_000 ")
    @example(fields("Age", "integer"), 2 ** 53 + 1)
    @example(fields("Age", "integer"), "\x1c63\x1c")
    @example(fields("t", "text"), float("inf"))
    @example(fields("c", "categorical", ["M", " m"]), " m")
    @example(fields("c", "categorical", ["m", "M"]), " M ")
    @example(fields("c", "categorical", ["None", "M"], allow_missing=False), "None")
    @example(fields("c", "categorical", ["M", "F"]), " m")
    def test_equals_oracle(self, spec_fields, raw):
        oracle_coerce = partial(oracle.canonicalize_value, SimpleNamespace(**spec_fields))
        unreadable = [value for value in spec_fields["allowed_values"]
                      if coerced(oracle_coerce, value) != ("ok", str, repr(value))]
        if unreadable:
            with pytest.raises(SchemaError, match=re.escape(
                    f"feature {spec_fields['name']!r}: allowed value {unreadable[0]!r} ")):
                FeatureSpec(**spec_fields)
            return
        spec = FeatureSpec(**spec_fields)
        assert coerced(spec.coerce, raw) == coerced(oracle_coerce, raw)

    @settings(max_examples=300, deadline=None)
    @given(_RAW)
    def test_every_heart_feature_equals_oracle(self, heart_schema, raw):
        for spec in heart_schema.features:
            assert coerced(spec.coerce, raw) == \
                coerced(partial(oracle.canonicalize_value, spec), raw)


_KEYS = st.one_of(
    st.text(alphabet="AgeSxRstinBPMHRCholrEcgFaOdpkT_ ", max_size=16),
    st.sampled_from(["Age", "age", "AGE", " age ", "Resting Bp", "resting_bp", "RestingBP",
                     "restingbp", "Max Hr", "max_hr", "MaxHR", "ST_Slope", "st slope",
                     "StSlope", "HeartDisease", "heart_disease", "id", "", " "]),
)


class TestKeyLookup:
    """``match_key`` reads the schema's fixed key table; the fold on every
    call that it replaced (tests/helpers.py) is the oracle."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_KEYS, max_size=20))
    def test_equals_fold_oracle(self, keys):
        schema = load_schema(SCHEMAS / "heart.schema.json")
        for key in keys + keys:  # the second time from the lookup
            assert schema.match_key(key) is oracle.match_key(schema, key)


# Feature names, titles and label names over a few letters, so that a
# title's snake spelling often folds onto another feature's name, onto the
# label's, or onto none.
_SPELLING = st.text(alphabet="aAgG _", min_size=1, max_size=5)


class TestKeyTableOnGeneratedSchemas:
    """A generated schema either loads, and then each feature's name and
    prompt key name that feature in every spelling, or two parties (two
    features, or a feature and the label) claim one folded key and loading
    raises SchemaError."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_SPELLING, st.text(alphabet="aAgG _", max_size=5)),
                    min_size=1, max_size=5, unique_by=lambda pair: fold_name(pair[0])),
           st.none() | _SPELLING)
    @example([("Years", "Age"), ("AGE", "AGE")], None)
    @example([("Age", "Chol"), ("Chol", "Age")], None)
    @example([("Outcome", "G a")], "GA")
    def test_loads_with_own_keys_or_raises(self, pairs, label):
        features = tuple(FeatureSpec(name=name, title=title) for name, title in pairs)
        claims: dict[str, set] = {}
        for name, title in pairs:
            for spelling in (name, snake_name(title or name)):
                claims.setdefault(fold_name(spelling), set()).add(name)
        if label is not None:
            claims.setdefault(fold_name(label), set()).add(None)
        label_spec = LabelSpec(label, "1", "0") if label is not None else None
        if any(len(parties) > 1 for parties in claims.values()):
            with pytest.raises(SchemaError):
                ExtractionSchema(features=features, label=label_spec)
            return
        schema = ExtractionSchema(features=features, label=label_spec)
        assert schema.prompt_keys == tuple(snake_name(title or name) for name, title in pairs)
        for spec, key in zip(schema.features, schema.prompt_keys):
            for spelling in (spec.name, key):
                for variant in (spelling, spelling.upper(), spelling.title(), f" {spelling} ",
                                spelling.replace("_", " "), spelling.replace(" ", "_")):
                    assert schema.match_key(variant) is oracle.match_key(schema, variant) is spec
