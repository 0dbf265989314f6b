package advisor

import (
	"math"
	"time"

	"colarm/internal/cost"
)

// TermObservation is one traced operator span paired with the executed
// plan's predicted-cost decomposition for that operator: the predicted
// cost under any units u is Coeff · u.
type TermObservation struct {
	Operator string
	Coeff    [cost.NumUnits]float64
	Measured time.Duration
}

// ChoiceObservation is one all-plans evaluation: per plan (in
// plans.Kinds order) the total-cost coefficient vector and the measured
// execution time, plus the applicability gate's verdict for the query.
// Coefficient vectors are unit-independent, so the same observation
// replays the optimizer's argmin under any candidate units.
type ChoiceObservation struct {
	Coeffs        [][cost.NumUnits]float64
	Measured      []time.Duration
	ARMIndex      int  // position of the ARM plan in the slices
	MIPApplicable bool // whether the gate allowed MIP-backed plans
}

// The report types below are the facade's and the wire's too: package
// colarm exports them under alias names and the serving layer marshals
// them as they are, so their field names are the public ones and their
// tags the names api/openapi.yaml documents.

// UnitDrift is one unit's calibration state: the static reference, the
// live value, and the evidence behind the gap.
type UnitDrift struct {
	Unit   string  `json:"unit"`
	Static float64 `json:"static"`
	Live   float64 `json:"live"`
	// Bias is the EWMA of log(measured/predicted) attributed to this
	// unit against the static reference; exp(Bias) is the correction
	// factor the evidence asks for.
	Bias float64 `json:"bias"`
	// Weight is the accumulated attribution weight — the effective
	// sample count behind the bias.
	Weight float64 `json:"weight"`
}

// GuardrailReport describes the replay differential guarding a unit
// swap: every logged all-plans evaluation is replayed under the
// candidate units, and the swap is refused if any replayed choice's
// measured cost exceeds the static-units choice's by more than the
// tolerance.
type GuardrailReport struct {
	// Evaluated is false when no replay ran (drift not persistent yet,
	// or no logged evaluations to replay).
	Evaluated bool `json:"evaluated"`
	// Window is the number of logged choice evaluations replayed.
	Window int `json:"window"`
	// WorstRegret is the largest fraction by which a candidate-units
	// choice's measured cost exceeded the static-units choice's.
	WorstRegret float64 `json:"worstRegret"`
	Tolerance   float64 `json:"tolerance"`
	Passed      bool    `json:"passed"`
}

// CalibrationReport is the recalibrator's full state after one
// Recalibrate evaluation (or a read-only snapshot): the static
// reference units, the live units the optimizer prices with, the
// candidate the evidence asks for, and the swap bookkeeping.
type CalibrationReport struct {
	StaticUnits    cost.Units `json:"staticUnits"`
	LiveUnits      cost.Units `json:"liveUnits"`
	CandidateUnits cost.Units `json:"candidateUnits"`
	// DriftScore is the largest absolute log-gap between the live units
	// and the evidence's candidate units; 0 means predictions are
	// unbiased (or just swapped).
	DriftScore float64 `json:"driftScore"`
	// Samples counts attributed operator observations so far.
	Samples int `json:"samples"`
	// Streak counts consecutive Recalibrate evaluations with the drift
	// above threshold.
	Streak int `json:"streak"`
	// Swapped reports that this evaluation swapped the live units.
	Swapped bool   `json:"swapped"`
	Swaps   uint64 `json:"swaps"`
	// LastSwap is when the live units were last swapped, in UTC; nil
	// until the first swap (and then absent from the wire form).
	LastSwap  *time.Time      `json:"lastSwap,omitempty"`
	Units     []UnitDrift     `json:"units,omitempty"`
	Guardrail GuardrailReport `json:"guardrail"`
}

// recalibrator is the units side of the advisor. All methods are called
// under the advisor's lock.
type recalibrator struct {
	cfg    Config
	static cost.Units
	live   cost.Units

	bias    [cost.NumUnits]float64
	weight  [cost.NumUnits]float64
	samples int
	streak  int

	swaps    uint64
	lastSwap *time.Time // UTC; nil until the first swap

	replay []ChoiceObservation // ring, newest last
}

func (r *recalibrator) init(static cost.Units, cfg Config) {
	if static == (cost.Units{}) {
		static = cost.DefaultUnits()
	}
	r.cfg = cfg
	r.static = static
	r.live = static
}

// observeTerm attributes one operator's measured-vs-predicted log-ratio
// to the units proportionally to each unit's share of the operator's
// predicted cost under the static reference.
func (r *recalibrator) observeTerm(t TermObservation) {
	predicted := 0.0
	sv := r.static.Vec()
	for i, c := range t.Coeff {
		predicted += c * sv[i]
	}
	if predicted <= 0 || t.Measured <= 0 {
		return
	}
	lr := math.Log(float64(t.Measured.Nanoseconds()) / predicted)
	// One pathological span (a scheduler stall, a cold cache) must not
	// yank the bias; clamp the per-observation ratio to 8x either way.
	const clamp = 2.0794415416798357 // ln 8
	if lr > clamp {
		lr = clamp
	} else if lr < -clamp {
		lr = -clamp
	}
	for i := range t.Coeff {
		share := t.Coeff[i] * sv[i] / predicted
		if share <= 0 {
			continue
		}
		a := r.cfg.Alpha * share
		r.bias[i] += a * (lr - r.bias[i])
		r.weight[i] += share
	}
	r.samples++
}

func (r *recalibrator) observeChoice(c ChoiceObservation) {
	if len(c.Coeffs) == 0 || len(c.Coeffs) != len(c.Measured) {
		return
	}
	r.replay = append(r.replay, c)
	if over := len(r.replay) - r.cfg.ReplayWindow; over > 0 {
		r.replay = append(r.replay[:0], r.replay[over:]...)
	}
}

// candidate derives the units the accumulated evidence asks for:
// static units corrected by each unit's bias factor, with units that
// have essentially no attribution weight left untouched.
func (r *recalibrator) candidate() cost.Units {
	v := r.static.Vec()
	for i := range v {
		if r.weight[i] >= 1 {
			v[i] *= math.Exp(r.bias[i])
		}
	}
	return cost.UnitsFromVec(v)
}

// driftScore measures how far the live units sit from the candidate:
// the largest absolute per-unit log-gap, over units with evidence.
func (r *recalibrator) driftScore() float64 {
	lv, cv := r.live.Vec(), r.candidate().Vec()
	score := 0.0
	for i := range lv {
		if r.weight[i] < 1 || lv[i] <= 0 || cv[i] <= 0 {
			continue
		}
		if g := math.Abs(math.Log(cv[i] / lv[i])); g > score {
			score = g
		}
	}
	return score
}

// replayChoice returns the measured duration of the plan the argmin
// over the coefficient vectors picks under the given units, honoring
// the applicability gate exactly as choosePlan does.
func replayChoice(c ChoiceObservation, u cost.Units) time.Duration {
	uv := u.Vec()
	best, bestCost := 0, math.Inf(1)
	for p, coeff := range c.Coeffs {
		total := 0.0
		for i, x := range coeff {
			total += x * uv[i]
		}
		if total < bestCost {
			best, bestCost = p, total
		}
	}
	if !c.MIPApplicable && best != c.ARMIndex {
		best = c.ARMIndex
	}
	return c.Measured[best]
}

// guardrail replays every logged choice under the candidate units and
// verifies no choice's measured cost regresses beyond the tolerance
// against the static-units choice — the differential that keeps
// recalibration from ever trading the accuracy baseline away.
func (r *recalibrator) guardrail(cand cost.Units) GuardrailReport {
	rep := GuardrailReport{Evaluated: true, Tolerance: r.cfg.GuardrailTolerance, Window: len(r.replay)}
	if len(r.replay) == 0 {
		// No evidence to clear the candidate on: refuse the swap rather
		// than swap blind.
		return rep
	}
	rep.Passed = true
	for _, c := range r.replay {
		staticT := replayChoice(c, r.static)
		candT := replayChoice(c, cand)
		if staticT <= 0 {
			continue
		}
		regret := float64(candT-staticT) / float64(staticT)
		if regret > rep.WorstRegret {
			rep.WorstRegret = regret
		}
		if regret > rep.Tolerance {
			rep.Passed = false
		}
	}
	return rep
}

func (r *recalibrator) recalibrate(now time.Time) CalibrationReport {
	drift := r.driftScore()
	if drift >= r.cfg.DriftThreshold && r.samples >= r.cfg.MinSamples {
		r.streak++
	} else {
		r.streak = 0
	}
	rep := r.report(false)
	if r.streak < r.cfg.BiasStreak {
		return rep
	}
	cand := r.candidate()
	rep.Guardrail = r.guardrail(cand)
	if !rep.Guardrail.Passed {
		return rep
	}
	r.live = cand
	r.swaps++
	now = now.UTC()
	r.lastSwap = &now
	r.streak = 0
	rep = r.report(true)
	rep.Guardrail = GuardrailReport{Evaluated: true, Tolerance: r.cfg.GuardrailTolerance, Window: len(r.replay), Passed: true}
	return rep
}

func (r *recalibrator) report(swapped bool) CalibrationReport {
	rep := CalibrationReport{
		StaticUnits:    r.static,
		LiveUnits:      r.live,
		CandidateUnits: r.candidate(),
		DriftScore:     r.driftScore(),
		Samples:        r.samples,
		Streak:         r.streak,
		Swapped:        swapped,
		Swaps:          r.swaps,
		LastSwap:       r.lastSwap,
	}
	names := cost.UnitNames()
	sv, lv := r.static.Vec(), r.live.Vec()
	for i := range names {
		rep.Units = append(rep.Units, UnitDrift{
			Unit:   names[i],
			Static: sv[i],
			Live:   lv[i],
			Bias:   r.bias[i],
			Weight: r.weight[i],
		})
	}
	return rep
}
