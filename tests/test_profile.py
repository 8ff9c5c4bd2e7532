"""The hypothesis profiles of ``conftest.py``."""

from hypothesis import given, settings, strategies as st


def test_the_profile_asked_for_is_loaded_and_tier1_by_default(request):
    asked = request.config.getoption("--hypothesis-profile")
    assert settings.get_current_profile_name() == (asked or "tier1")


def test_the_tier1_profile_draws_the_same_examples_on_every_run():
    draws = []

    @settings(settings.get_profile("tier1"), max_examples=20)
    @given(st.lists(st.integers()))
    def draw(xs):
        draws.append(xs)

    draw()
    first = list(draws)
    draws.clear()
    draw()
    assert len(first) > 1 and draws == first
