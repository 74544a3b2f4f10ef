"""The public surface: every export resolves, the README pipeline block runs, its error table is
whole, and each outside input is refused by name."""

import re
from pathlib import Path

import numpy as np
import pytest
from conftest import START

import solarband
from solarband import cli, normality
from solarband.bands import BandTrack
from solarband.forecast import ForecastTrack
from solarband.report import EmptyRangeError, render_series_svg
from solarband.series import IrradianceSeries

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert [name for name in solarband.__all__ if not hasattr(solarband, name)] == []


def test_readme_pipeline_block_runs():
    section = README.read_text(encoding="utf-8").split("## Pipeline at a glance", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["card"].n_scored > 0


def test_readme_error_table_names_every_exported_error():
    """Each exported error class has a row in the README's table, and each row an exported class."""
    rows = re.findall(r"^\| `(\w+)` \|.*\| `(\d)` \|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    named = [name for name, _ in rows]
    exported = [name for name in solarband.__all__ if name.endswith("Error")]
    assert sorted(named) == sorted(exported)
    for name, code in rows:  # the exit code cli.main gives the class
        uncalibratable = issubclass(getattr(solarband, name), solarband.UncalibratableWindowError)
        assert int(code) == (cli.EXIT_UNCALIBRATABLE if uncalibratable else cli.EXIT_DATA), name


def _zero_width_plot():
    zeros = np.zeros(3)
    series = IrradianceSeries(START, zeros)
    return render_series_svg(series, ForecastTrack(START, 60, zeros, zeros),
                             BandTrack(START, zeros, zeros, np.ones(3)), 1, 1, "t")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ForecastTrack(START, 0, np.zeros(3), np.zeros(3)),
                 ValueError, r"^horizon must be >= 1$", id="track-horizon-0"),
    pytest.param(lambda: normality.jarque_bera(np.zeros((2, 8))),
                 ValueError, r"^sample must be 1-d$", id="sample-2d"),
    pytest.param(lambda: normality.jarque_bera(np.r_[np.arange(8.0), np.nan]),
                 ValueError, r"^sample must be finite$", id="sample-nan"),
    pytest.param(lambda: normality.asymptotic_distance_quantile(0.0),
                 ValueError, r"^level must be in \(0, 1\)$", id="quantile-level-0"),
    pytest.param(lambda: normality.parse_table("x\n"),
                 ValueError, r"^expected header 'n,level,critical'$", id="table-header"),
    pytest.param(lambda: normality.lilliefors_critical(7),
                 ValueError, r"^n=7 below smallest tabulated size 8$", id="table-size-7"),
    pytest.param(lambda: normality.diff_histogram(np.array([0.0, np.inf]), 4),
                 ValueError, r"^sample must be finite$", id="histogram-inf"),
    pytest.param(_zero_width_plot,
                 EmptyRangeError, r"^range \[1, 1\) is empty or out of bounds$", id="plot-lo-equals-hi"),
])
def test_each_outside_input_is_refused_by_name(call, error, message):
    """Inputs no pipeline run produces: each raises its own error and message, not a later one."""
    with pytest.raises(error, match=message):
        call()
