import pytest

from pulsealarm import (
    BandMode,
    BpmBand,
    UserProfile,
    max_heart_rate,
    moderate_exercise_band,
    satisfaction_band,
    sleep_rate_range,
)


class TestMaxHeartRate:
    @pytest.mark.parametrize("age,expected", [(20, 200), (55, 165), (1, 219), (120, 100)])
    def test_formula(self, age, expected):
        assert max_heart_rate(age) == expected

    @pytest.mark.parametrize("age", [0, 121, -3])
    def test_out_of_range(self, age):
        with pytest.raises(ValueError):
            max_heart_rate(age)

    def test_strictly_decreasing_with_age(self):
        rates = [max_heart_rate(a) for a in range(1, 121)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestModerateExerciseBand:
    @pytest.mark.parametrize(
        "age,low,high",
        [
            (20, 100, 138),
            (40, 90, 124),   # 0.69 * 180 = 124.2 rounds down
            (120, 50, 69),
        ],
    )
    def test_band(self, age, low, high):
        assert moderate_exercise_band(age) == BpmBand(low, high)

    def test_band_inside_max(self):
        for age in range(1, 121):
            band = moderate_exercise_band(age)
            assert band.low < band.high <= max_heart_rate(age)


class TestSleepRateRange:
    @pytest.mark.parametrize(
        "resting,low,high", [(100, 90.0, 92.0), (80, 72.0, 73.6)]
    )
    def test_depression(self, resting, low, high):
        band = sleep_rate_range(resting)
        assert band.low == pytest.approx(low)
        assert band.high == pytest.approx(high)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sleep_rate_range(0)

    def test_always_below_resting(self):
        for resting in (40, 60, 80, 100, 180):
            band = sleep_rate_range(resting)
            assert band.low < band.high < resting


class TestSatisfactionBand:
    def test_fixed_default(self):
        band = satisfaction_band()
        assert band == BpmBand(101, 199)
        assert 23 <= band.low and band.high <= 200

    def test_fixed_ignores_profile(self):
        assert satisfaction_band(UserProfile(60, 70)) == BpmBand(101, 199)

    def test_age_derived(self):
        band = satisfaction_band(UserProfile(20, 90), BandMode.AGE_DERIVED)
        assert band == BpmBand(100, 138)

    def test_age_derived_boundary_age(self):
        # max HR 219: 0.50*219 = 109.5 -> 110, 0.69*219 = 151.11 -> 151
        band = satisfaction_band(UserProfile(1, 90), BandMode.AGE_DERIVED)
        assert band == BpmBand(110, 151)

    def test_age_derived_requires_profile(self):
        with pytest.raises(ValueError, match="requires a user profile"):
            satisfaction_band(None, BandMode.AGE_DERIVED)

    def test_age_derived_clipped_to_plausible(self):
        for age in range(1, 121):
            band = satisfaction_band(UserProfile(age, 50), BandMode.AGE_DERIVED)
            assert band.low >= 23 and band.high <= 200


class TestUserProfile:
    def test_resting_must_be_below_max(self):
        with pytest.raises(ValueError):
            UserProfile(30, 190)

    @pytest.mark.parametrize("age", [0, 121])
    def test_age_bounds(self, age):
        with pytest.raises(ValueError):
            UserProfile(age, 70)


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(lambda: BpmBand(150, 100), "band must satisfy 0 <= low <= high",
                     id="band-low-above-high"),
        pytest.param(lambda: BpmBand(-1, 100), "band must satisfy 0 <= low <= high",
                     id="band-negative-low"),
        pytest.param(lambda: UserProfile(0, 70), "age_years must be in [1, 120], got 0",
                     id="profile-age-below-range"),
        pytest.param(lambda: UserProfile(30, 190), "resting_bpm must be in (0, 190), got 190",
                     id="profile-resting-at-max"),
    ],
)
def test_constructor_checks(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert exc.type is ValueError
    assert str(exc.value).startswith(message)
