package synth

import (
	"math"
	"math/rand"
)

// Affect states shared by the three datasets. WESAD's labels are neutral/
// stress/amusement; the nurse and stress-predict datasets reduce to good/
// common/stress. Internally state 0 is the low-arousal baseline, state 1
// the stressor, state 2 the third condition.
const (
	StateStress = 1
	StateAmused = 2
	NumStates   = 3
)

// SampleRate is the abstract sampling frequency (Hz) of generated signals.
const SampleRate = 32.0

// NumChannels is the number of raw sensor channels produced per recording:
// BVP, ECG, EDA, EMG, RESP, TEMP, ACC-x, ACC-y, ACC-z.
const NumChannels = 9

// stateModulation captures how an affect state shifts each physiological
// driver relative to the subject's baseline. scale in [0,1] shrinks the
// shifts toward zero — the class-overlap knob that sets dataset difficulty.
type stateModulation struct {
	hrDelta       float64 // beats/min added to resting HR
	hrVarMul      float64 // multiplier on HR variability
	scrRate       float64 // skin-conductance responses per minute
	edaTonicDelta float64 // tonic EDA shift (muS)
	emgBurst      float64 // EMG burst probability per second
	respDelta     float64 // breaths/min shift
	tempSlope     float64 // deg C drift per minute
	motionMul     float64 // accelerometer energy multiplier
	bvpAmpMul     float64 // pulse amplitude multiplier (vasoconstriction)
}

func modulationFor(state int, reactive, scale float64) stateModulation {
	var m stateModulation
	switch state {
	case StateStress:
		// Sympathetic arousal with motoric freeze: strong EDA surge,
		// elevated HR with suppressed variability, vasoconstriction,
		// shallow fast breathing, slight temperature drop.
		m = stateModulation{
			hrDelta: 18, hrVarMul: 0.55, scrRate: 10, edaTonicDelta: 1.8,
			emgBurst: 0.3, respDelta: 4.5, tempSlope: -0.08,
			motionMul: 1.05, bvpAmpMul: 0.7,
		}
	case StateAmused:
		// Laughter: bursty EMG and motion with preserved heart-rate
		// variability and only mild electrodermal response — a direction
		// orthogonal to stress rather than a milder copy of it.
		m = stateModulation{
			hrDelta: 8, hrVarMul: 1.3, scrRate: 4, edaTonicDelta: 0.5,
			emgBurst: 1.0, respDelta: 2, tempSlope: 0.02,
			motionMul: 1.5, bvpAmpMul: 0.95,
		}
	default: // baseline
		m = stateModulation{
			hrDelta: 0, hrVarMul: 1, scrRate: 1.5, edaTonicDelta: 0,
			emgBurst: 0.08, respDelta: 0, tempSlope: 0,
			motionMul: 1, bvpAmpMul: 1,
		}
	}
	// Shrink state-specific deltas toward the baseline values by the
	// subject's reactivity and the dataset overlap factor.
	k := reactive * scale
	m.hrDelta *= k
	m.hrVarMul = 1 + (m.hrVarMul-1)*k
	m.scrRate = 1.5 + (m.scrRate-1.5)*k
	m.edaTonicDelta *= k
	m.emgBurst = 0.08 + (m.emgBurst-0.08)*k
	m.respDelta *= k
	m.tempSlope *= k
	m.motionMul = 1 + (m.motionMul-1)*k
	m.bvpAmpMul = 1 + (m.bvpAmpMul-1)*k
	return m
}

// Recording synthesizes one multichannel segment of n samples for a
// subject in the given affect state. separability in (0,1] scales how far
// states move the signal statistics apart; sensorNoise adds white
// measurement noise on every channel.
func Recording(s Subject, state, n int, separability, sensorNoise float64, rng *rand.Rand) [][]float64 {
	m := modulationFor(state, s.Reactive, separability)
	ch := make([][]float64, NumChannels)
	for i := range ch {
		ch[i] = make([]float64, n)
	}

	hr := s.RestHR + m.hrDelta
	hrv := s.HRVar * m.hrVarMul
	// Slowly varying heart-rate trajectory (random walk around target).
	curHR := hr + rng.NormFloat64()*hrv

	// EDA phasic events: Poisson arrivals decaying exponentially.
	scrPerSample := m.scrRate / 60.0 / SampleRate
	eda := s.EDABase + m.edaTonicDelta
	var scr float64

	respPhase := rng.Float64() * 2 * math.Pi
	cardiacPhase := rng.Float64() * 2 * math.Pi
	temp := s.TempBase

	emgPerSample := m.emgBurst / SampleRate
	var emgEnv float64

	motion := s.MotionAmp * m.motionMul

	for t := 0; t < n; t++ {
		// Heart rate random walk pulled toward the state target.
		curHR += 0.02*(hr-curHR) + 0.15*hrv*rng.NormFloat64()
		cardiacPhase += 2 * math.Pi * curHR / 60.0 / SampleRate
		respPhase += 2 * math.Pi * (s.RespRate + m.respDelta) / 60.0 / SampleRate

		// BVP: pulse wave with dicrotic second harmonic, respiratory
		// amplitude modulation, state-dependent amplitude, and a slow
		// baseline (vascular tone) that tracks heart rate — the component
		// that survives the moving-average front-end of the feature
		// pipeline.
		bvp := m.bvpAmpMul * (math.Sin(cardiacPhase) + 0.35*math.Sin(2*cardiacPhase+0.8)) *
			(1 + 0.1*math.Sin(respPhase))
		tone := 0.03 * (curHR - 65)
		ch[0][t] = bvp + tone + sensorNoise*rng.NormFloat64()

		// ECG proxy: sharper waveform of the same cardiac phase.
		ecg := math.Pow(math.Max(0, math.Sin(cardiacPhase)), 8) - 0.12*math.Sin(cardiacPhase)
		ch[1][t] = ecg + sensorNoise*rng.NormFloat64()

		// EDA: tonic drift + phasic SCRs with exponential decay.
		if rng.Float64() < scrPerSample {
			scr += 0.6 + 0.4*rng.Float64()
		}
		scr *= 0.995
		eda += 0.0005 * rng.NormFloat64()
		ch[2][t] = eda + scr + 0.5*sensorNoise*rng.NormFloat64()

		// EMG: white noise whose envelope jumps during bursts; the
		// envelope also leaks into the baseline (muscle-tone offset) so
		// smoothing preserves burst activity.
		if rng.Float64() < emgPerSample {
			emgEnv += 0.8 + 0.4*rng.Float64()
		}
		emgEnv *= 0.99
		ch[3][t] = (0.1+emgEnv)*rng.NormFloat64() + 0.3*emgEnv

		// RESP: breathing oscillation.
		ch[4][t] = math.Sin(respPhase) + 0.5*sensorNoise*rng.NormFloat64()

		// TEMP: slow drift with state-dependent slope.
		temp += m.tempSlope / 60.0 / SampleRate
		ch[5][t] = temp + 0.02*rng.NormFloat64()

		// ACC x/y/z: correlated motion noise with occasional gestures.
		g := 0.0
		if rng.Float64() < 0.002*motion {
			g = motion * (1 + rng.Float64())
		}
		ch[6][t] = motion*0.3*rng.NormFloat64() + g
		ch[7][t] = motion*0.3*rng.NormFloat64() + 0.5*g
		ch[8][t] = 1 + motion*0.2*rng.NormFloat64() // gravity-dominated axis
	}
	return ch
}
