import numpy as np
import pytest

from lyapcert.errors import require_positive


class TestRequirePositive:
    def test_positive_and_finite_values_pass(self):
        assert require_positive(a=1, b=2.5, c=np.float64(1e-300), d=np.finfo(float).max) is None
        assert require_positive() is None

    @pytest.mark.parametrize("value", [0.0, -0.0, -1, -np.inf, np.inf, np.nan])
    def test_message_names_the_value(self, value):
        with pytest.raises(ValueError) as exc:
            require_positive(x=value)
        assert str(exc.value) == f"x must be positive and finite, got {value!r}"

    def test_first_failure_in_argument_order(self):
        with pytest.raises(ValueError, match="^b must") as exc:
            require_positive(a=1.0, b=0.0, c=np.nan)
        assert str(exc.value).endswith("got 0.0")
