"""Drive compilation and the drive-to-pump-power transfer model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from sqzsim.homodyne import DetectorModel
from sqzsim.opa import SqueezerTrajectory
from sqzsim.pump import (
    _FIRST_ORDER_RISE_PER_TAU,
    AwgProgram,
    Calibration,
    ModulatorResponse,
    PowerTrace,
    PulseSlot,
    PulseTrainSpec,
    _first_order_filter,
    apply_modulator_response,
    compile_pulse_train,
    ideal_pump_power,
    pump_phase_trace,
    rise_time_10_90,
    slot_mode_centers,
)
from sqzsim.scenarios import _pump_chain, _write_artifact


@pytest.fixture
def cal():
    return Calibration()


@pytest.fixture
def resp():
    return ModulatorResponse()


def test_default_calibration_hits_max_power_at_linear_limit(cal):
    assert cal.quad_coeff == pytest.approx(253.90625, abs=1e-12)
    assert float(cal.power_for_voltage(0.160)) == pytest.approx(6.5, abs=1e-12)


def test_power_for_voltage_ignores_sign(cal):
    assert float(cal.power_for_voltage(-0.1)) == float(cal.power_for_voltage(0.1))


def test_power_for_voltage_rejects_out_of_range(cal):
    with pytest.raises(ValueError):
        cal.power_for_voltage(0.2)


def test_voltage_for_power_round_trip(cal):
    for p in (0.01, 0.5, 3.2, 6.5):
        v = cal.voltage_for_power(p)
        assert float(cal.power_for_voltage(v)) == pytest.approx(p, rel=1e-12)
    assert cal.voltage_for_power(0.0) == 0.0


def test_voltage_for_power_needs_lut_beyond_linear_limit(cal):
    with pytest.raises(ValueError, match="lookup table"):
        cal.voltage_for_power(7.0)


def test_extended_lut_interpolation():
    lut = np.array([[0.160, 6.5], [0.20, 8.0], [0.25, 9.0]])
    cal = Calibration(extended_lut=lut)
    assert float(cal.power_for_voltage(0.225)) == pytest.approx(8.5, abs=1e-12)
    v = cal.voltage_for_power(8.5)
    assert v == pytest.approx(0.225, abs=1e-12)
    # quadratic region unchanged
    assert float(cal.power_for_voltage(0.1)) == pytest.approx(253.90625 * 0.01, abs=1e-12)


def test_extended_lut_validation():
    with pytest.raises(ValueError):
        Calibration(extended_lut=np.array([[0.160, 6.5], [0.15, 8.0]]))
    with pytest.raises(ValueError, match="discontinuous"):
        Calibration(extended_lut=np.array([[0.160, 9.0], [0.20, 10.0]]))


def test_calibration_validation():
    with pytest.raises(ValueError):
        Calibration(quad_coeff=0.0)
    with pytest.raises(ValueError):
        Calibration(gain_coeff=-1.0)


@pytest.mark.parametrize(
    "key", ["quad_coeff_mw_per_v2", "linear_limit_v", "gain_coeff_per_sqrt_mw", "max_pump_power_mw"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_calibration_from_dict_rejects_non_finite_coefficients_naming_the_key(cal, key, value):
    with pytest.raises(ValueError, match=f"{key} must hold finite numbers"):
        Calibration.from_dict(cal.to_dict() | {key: value})


@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(lambda v: DetectorModel(bandwidth=None, sample_rate=v), "sample_rate",
                     id="DetectorModel.sample_rate"),
        pytest.param(
            lambda v: SqueezerTrajectory(dt=v, r=np.zeros(4), theta=np.zeros(4), loss=0.0), "dt",
            id="SqueezerTrajectory.dt",
        ),
        pytest.param(lambda v: PowerTrace(dt=v, power_mw=np.ones(4)), "dt", id="PowerTrace.dt"),
        pytest.param(lambda v: ModulatorResponse(rise_time_10_90=v), "rise_time_10_90",
                     id="ModulatorResponse.rise_time_10_90"),
        *[pytest.param(lambda v, k=k: Calibration(**{k: v}), k, id=f"Calibration.{k}")
          for k in ("quad_coeff", "linear_limit", "gain_coeff", "max_pump_power")],
        *[pytest.param(lambda v, k=k: PulseSlot(**{k: v}), k, id=f"PulseSlot.{k}")
          for k in ("mode_width", "margin", "squeezing_db")],
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_constructors_reject_non_finite_values_naming_the_field(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(value)


def test_calibration_from_dict_rejects_a_non_finite_lookup_table():
    lut = [[0.16, 6.5], [0.2, math.nan]]
    with pytest.raises(ValueError, match="extended_lut must hold finite numbers"):
        Calibration.from_dict(Calibration().to_dict() | {"extended_lut": lut})


def test_awg_program_round_trips(tmp_path, cal):
    prog = AwgProgram(1e9, np.array([0.0, 0.1, -0.1, 0.05]))
    ideal = ideal_pump_power(prog, cal)
    shaped = apply_modulator_response(ideal, ModulatorResponse())
    table, _, _ = _pump_chain(prog, cal, ModulatorResponse(), 0.1)
    p_csv = tmp_path / "prog_pump.csv"
    _write_artifact(p_csv, table, {"seed": 3})
    meta, names, *rows = p_csv.read_text().splitlines()
    assert meta == "# seed=3"
    assert names == "time_s,drive_v,ideal_power_mw,power_mw"
    # %.17g rows give the float64 times, drive voltages and powers back exactly
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(back[:, 0], prog.times)
    assert np.array_equal(back[:, 1], prog.samples_v)
    assert np.array_equal(back[:, 2], ideal.power_mw)
    assert np.array_equal(back[:, 3], shaped.power_mw)


def test_awg_program_validation():
    with pytest.raises(ValueError):
        AwgProgram(0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        AwgProgram(1e9, np.array([np.nan]))


def test_pulse_slot_period_and_validation():
    slot = PulseSlot(squeezing_db=2.71)
    assert slot.period == pytest.approx(80e-9, abs=1e-15)
    with pytest.raises(ValueError):
        PulseSlot(squeezing_db=-1.0)
    with pytest.raises(ValueError):
        PulseSlot(quadrature="y_squeezed")


def test_slot_mode_centers():
    spec = PulseTrainSpec(slots=(PulseSlot(2.71), PulseSlot(0.0), PulseSlot(1.5)))
    centers = slot_mode_centers(spec)
    want = np.array([65e-9, 145e-9, 225e-9])
    assert np.allclose(centers, want, atol=1e-15)


def test_compile_pulse_train_levels_and_signs(cal, resp):
    spec = PulseTrainSpec(
        slots=(
            PulseSlot(2.71, "x_squeezed"),
            PulseSlot(0.0),
            PulseSlot(2.71, "p_squeezed"),
        )
    )
    prog = compile_pulse_train(spec, cal, resp)
    assert prog.samples_v.size == 240
    v = cal.voltage_for_power((0.3120002801006932 / cal.gain_coeff) ** 2)
    assert np.allclose(prog.samples_v[:80], v, atol=1e-12)
    assert np.all(prog.samples_v[80:160] == 0.0)
    assert np.allclose(prog.samples_v[160:], -v, atol=1e-12)


def test_compile_rejects_overdriven_slot(cal, resp):
    spec = PulseTrainSpec(slots=(PulseSlot(4.0),))
    with pytest.raises(ValueError, match="mW"):
        compile_pulse_train(spec, cal, resp)


def test_compile_rejects_short_margin(cal, resp):
    spec = PulseTrainSpec(slots=(PulseSlot(1.0, margin=10e-9),))
    with pytest.raises(ValueError, match="settling"):
        compile_pulse_train(spec, cal, resp)


def _step_trace(dt=1e-9, n=400, level=6.5, at=100):
    p = np.zeros(n)
    p[at:] = level
    return PowerTrace(dt=dt, power_mw=p)


def test_modulator_step_rise_time():
    resp = ModulatorResponse(rise_time_10_90=7e-9)
    out = apply_modulator_response(_step_trace(), resp)
    rise = rise_time_10_90(out)
    assert abs(rise - 7e-9) <= 1e-9


def test_modulator_response_is_causal():
    resp = ModulatorResponse(rise_time_10_90=7e-9)
    out = apply_modulator_response(_step_trace(at=100), resp)
    assert np.all(out.power_mw[:100] == 0.0)


def test_modulator_preserves_settled_level():
    resp = ModulatorResponse(rise_time_10_90=7e-9)
    out = apply_modulator_response(_step_trace(), resp)
    assert out.power_mw[-1] == pytest.approx(6.5, rel=1e-6)


def test_modulator_holds_constant_input():
    resp = ModulatorResponse(rise_time_10_90=7e-9)
    trace = PowerTrace(dt=1e-9, power_mw=np.full(300, 2.5))
    out = apply_modulator_response(trace, resp)
    assert np.allclose(out.power_mw, 2.5, rtol=1e-9)


@pytest.mark.parametrize("rise", [4e-9, 7e-9])
@pytest.mark.parametrize("dt", [0.2e-9, 1e-9])
@pytest.mark.parametrize("n", [1000, 2600, 5000])
@pytest.mark.parametrize("shape", ["step", "random"])
def test_first_order_filter_is_scipy_lfilter_byte_for_byte(rise, dt, n, shape):
    if shape == "step":
        # starts on a plateau, then steps up
        x = np.where(np.arange(n) < n // 3, 1.5, 6.5)
    else:
        x = 6.5 * np.random.default_rng(n).random(n)
    alpha = 1.0 - math.exp(-dt / (rise / _FIRST_ORDER_RISE_PER_TAU))
    b, a = np.array([alpha]), np.array([1.0, alpha - 1.0])
    want, _ = signal.lfilter(b, a, x, zi=signal.lfiltic(b, a, y=[x[0]], x=[x[0]]))
    assert _first_order_filter(x, dt, rise).tobytes() == want.tobytes()


@st.composite
def _non_negative_power(draw):
    """A non-negative power trace and a rise time it resolves (dt <= rise / 4)."""
    rise = draw(st.floats(1e-9, 50e-9))
    dt = rise / draw(st.floats(4.0, 64.0))
    n = draw(st.integers(2, 400))
    top = Calibration().max_pump_power
    shape = draw(st.sampled_from(["zeros", "step", "plateaus"]))
    if shape == "zeros":
        power = np.zeros(n)
    elif shape == "step":
        power = np.zeros(n)
        power[draw(st.integers(0, n - 1)) :] = top
    else:
        levels = np.array(draw(st.lists(st.floats(0.0, top), min_size=1, max_size=8)))
        power = levels[np.arange(n) * levels.size // n]
    return PowerTrace(dt=dt, power_mw=power), ModulatorResponse(rise_time_10_90=rise)


@settings(max_examples=200, deadline=None)
@given(_non_negative_power())
def test_modulator_response_keeps_power_non_negative(case):
    # a one-pole filter of non-negative power needs no clamp at zero
    trace, resp = case
    out = apply_modulator_response(trace, resp)
    assert isinstance(out, PowerTrace)
    assert out.power_mw.min() >= 0.0


def test_ideal_pump_power_matches_calibration(cal):
    prog = AwgProgram(1e9, np.array([0.0, 0.08, -0.16]))
    trace = ideal_pump_power(prog, cal)
    want = np.array([0.0, 253.90625 * 0.08**2, 6.5])
    assert np.allclose(trace.power_mw, want, atol=1e-12)
    assert trace.dt == prog.dt


def test_pump_phase_trace_follows_sign():
    prog = AwgProgram(1e9, np.array([0.1, -0.1, 0.0, -0.05]))
    phase = pump_phase_trace(prog)
    assert np.allclose(phase, [0.0, math.pi, 0.0, math.pi])


def test_rise_time_on_linear_ramp():
    # 0 to 1 over 100 samples: the 10-90 crossing distance is exact
    p = np.concatenate([np.zeros(5), np.linspace(0.0, 1.0, 101), np.ones(5)])
    trace = PowerTrace(dt=1e-9, power_mw=p)
    assert rise_time_10_90(trace) == pytest.approx(80e-9, rel=1e-12)


def test_rise_time_rejects_flat_or_clipped_traces():
    with pytest.raises(ValueError):
        rise_time_10_90(PowerTrace(dt=1e-9, power_mw=np.ones(50)))
    with pytest.raises(ValueError):
        rise_time_10_90(PowerTrace(dt=1e-9, power_mw=np.linspace(1.0, 0.0, 50)))


def test_power_trace_csv(tmp_path, cal):
    prog = AwgProgram(1e9, np.array([0.0, 0.05, 0.1]))
    table, _, _ = _pump_chain(prog, cal, ModulatorResponse(), 0.1)
    path = tmp_path / "trace.csv"
    _write_artifact(path, table, {"scenario": "unit"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert any("scenario=unit" in ln for ln in lines if ln.startswith("#"))
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert "time_s" in header and "power_mw" in header


def test_power_trace_validation():
    with pytest.raises(ValueError):
        PowerTrace(dt=0.0, power_mw=np.array([1.0]))
    with pytest.raises(ValueError):
        PowerTrace(dt=1e-9, power_mw=np.array([-0.5]))
