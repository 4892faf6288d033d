"""Shared parameter-validator tests (satellite of the serving PR):
every tuning knob across the CLI, retry policy, and server fails with
the same typed error and message shape."""

import math

import pytest

from repro.errors import InvalidParameterError
from repro.execution import RetryPolicy
from repro.validation import (
    validate_non_negative_int,
    validate_positive_int,
    validate_timeout,
)


class TestValidatePositiveInt:
    def test_accepts_positive(self):
        assert validate_positive_int(3, "knob") == 3

    @pytest.mark.parametrize("value", [0, -1, 2.5, "4", True, None])
    def test_rejects_non_positive_and_non_int(self, value):
        with pytest.raises(InvalidParameterError, match="knob must be a positive integer"):
            validate_positive_int(value, "knob")


class TestValidateNonNegativeInt:
    def test_accepts_zero(self):
        assert validate_non_negative_int(0, "knob") == 0

    @pytest.mark.parametrize("value", [-1, 0.5, False])
    def test_rejects(self, value):
        with pytest.raises(InvalidParameterError, match="knob"):
            validate_non_negative_int(value, "knob")


class TestValidateTimeout:
    def test_none_means_unbounded(self):
        assert validate_timeout(None, "deadline") is None

    def test_accepts_positive_numbers(self):
        assert validate_timeout(1.5, "deadline") == 1.5
        assert validate_timeout(2, "deadline") == 2

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, "soon"])
    def test_rejects_non_positive_and_nan(self, value):
        with pytest.raises(InvalidParameterError):
            validate_timeout(value, "deadline")


class TestAppliedAcrossLayers:
    """The same typed error surfaces from every entry point."""

    def test_retry_policy_uses_shared_validators(self):
        with pytest.raises(InvalidParameterError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(InvalidParameterError, match="fragment_timeout"):
            RetryPolicy(fragment_timeout=0.0)
