package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attacks"
	"repro/internal/sim"
	"repro/internal/textplot"
)

// Figure is one regenerated evaluation artifact.
type Figure struct {
	ID    string
	Title string
	Unit  string
	Bars  []textplot.Bar
	// Rows/Header fill table-style artifacts instead of Bars.
	Header []string
	Rows   [][]string
	// Notes record calibration decisions and paper expectations.
	Notes []string
}

// Render returns the plain-text artifact.
func (f *Figure) Render() string {
	var sb strings.Builder
	if len(f.Bars) > 0 {
		sb.WriteString(textplot.RenderBars(fmt.Sprintf("%s: %s", f.ID, f.Title), f.Unit, f.Bars, 46))
	} else {
		sb.WriteString(textplot.Table(fmt.Sprintf("%s: %s", f.ID, f.Title), f.Header, f.Rows))
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// billBar is one stacked user/system bar of p's bill under scheme.
func billBar(group, label string, p PartyUsage, scheme string) textplot.Bar {
	return textplot.Bar{Group: group, Label: label, Segments: []textplot.Segment{
		{Name: "user", Value: p.User[scheme]},
		{Name: "system", Value: p.Sys[scheme]},
	}}
}

// victimBars renders one workload's normal-vs-attack pair using the
// billed (jiffy) numbers, as the paper's getrusage does.
func victimBars(group string, normal, attacked *RunOut) []textplot.Bar {
	return []textplot.Bar{
		billBar(group, "normal", normal.Victim, "jiffy"),
		billBar(group, "attack", attacked.Victim, "jiffy"),
	}
}

// perProgramFigure declares the normal/attack pair for all four
// programs as one matrix and executes it through the campaign worker
// pool. mkAttack builds a fresh attack per run (machines are not
// shared, and attacks carry per-machine state once armed).
func perProgramFigure(o Options, id, title string, touches func(key string) uint64, mkAttack func() attacks.Attack) (*Figure, error) {
	o = o.norm()
	fig := &Figure{ID: id, Title: title, Unit: "CPU seconds (billed by jiffy accounting)"}
	keys := []string{"O", "P", "W", "B"}

	var mx Matrix
	type pair struct{ normal, attacked int }
	pairs := make([]pair, 0, len(keys))
	for _, key := range keys {
		var tc uint64
		if touches != nil {
			tc = touches(key)
		}
		pairs = append(pairs, pair{
			normal:   mx.Add(RunSpec{Opts: o, Workload: key, Touches: tc}),
			attacked: mx.Add(RunSpec{Opts: o, Workload: key, Touches: tc, Attack: mkAttack()}),
		})
	}
	outs, err := mx.Run(o.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	for i, key := range keys {
		fig.Bars = append(fig.Bars, victimBars(key, outs[pairs[i].normal], outs[pairs[i].attacked])...)
	}
	return fig, nil
}

// payloadCycles scales the paper's ~34 s injected loop.
func payloadCycles(o Options) sim.Cycles {
	return sim.Cycles(34 * o.Scale * float64(o.Freq))
}

// Figure4 reproduces the shell attack: every program's user time
// grows by the same ~34 s payload; system time is untouched.
func Figure4(o Options) (*Figure, error) {
	o = o.norm()
	fig, err := perProgramFigure(o, "Figure 4", "Shell Attack", nil, func() attacks.Attack {
		return &attacks.ShellAttack{PayloadCycles: payloadCycles(o)}
	})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("payload: %.1f s injected between fork() and execve(); paper: ~34 s (2^34-iteration loop)", 34*o.Scale),
		"expectation: user time +constant for all four programs, system time unchanged")
	return fig, nil
}

// Figure5 reproduces the shared-library constructor attack; the
// paper notes the result is "almost identical" to Fig. 4.
func Figure5(o Options) (*Figure, error) {
	o = o.norm()
	fig, err := perProgramFigure(o, "Figure 5", "Shared Library Constructor Attack", nil, func() attacks.Attack {
		return &attacks.LibraryCtorAttack{PayloadCycles: payloadCycles(o)}
	})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"LD_PRELOAD-ed constructor runs the same payload before main()",
		"expectation: almost identical to Figure 4 (same code, different location)")
	return fig, nil
}

// Figure6 reproduces the function-substitution attack: fake malloc()
// and sqrt() run attack code per call, so inflation scales with the
// victim's call counts (libm-heavy Whetstone inflates most).
func Figure6(o Options) (*Figure, error) {
	o = o.norm()
	perCall := sim.Cycles(uint64(o.Freq) / 2000) // ~0.5 ms per interposed call
	fig, err := perProgramFigure(o, "Figure 6", "Library Function Substitution Attack", nil, func() attacks.Attack {
		return &attacks.LibrarySubstitutionAttack{PerCallCycles: perCall}
	})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"fake malloc/sqrt run ~0.5 ms of attack code then call the genuine function",
		"expectation: amplified vs Fig. 5, proportional to per-program call frequency")
	return fig, nil
}

// schedulingSweep produces the Fig. 7/8 artifact for one victim:
// leftmost pair is victim and Fork run independently; subsequent
// pairs run them concurrently with the attacker at each nice value.
func schedulingSweep(o Options, id, victim string) (*Figure, error) {
	o = o.norm()
	forks := uint64(float64(attacks.DefaultSchedulingForks) * o.Scale)
	if forks < 512 {
		forks = 512
	}
	fig := &Figure{
		ID:    id,
		Title: fmt.Sprintf("Process Scheduling Attack on %s", victim),
		Unit:  "CPU seconds (billed by jiffy accounting; Fork includes its children)",
	}

	addPair := func(group string, v, f *RunOut) {
		fig.Bars = append(fig.Bars,
			billBar(group, victim, v.Victim, "jiffy"),
			textplot.Bar{Group: group, Label: "Fork", Segments: []textplot.Segment{
				{Name: "user", Value: f.AttackerUser("jiffy")},
				{Name: "system", Value: f.AttackerSys("jiffy")},
			}},
		)
	}

	// The full matrix: the two independent runs ("no attack"), then
	// one concurrent victim/attacker run per nice level.
	niceLevels := []int{0, -5, -10, -15, -20}
	var mx Matrix
	vAlone := mx.Add(RunSpec{Opts: o, Workload: victim})
	fAlone := mx.Add(RunSpec{Opts: o, Attack: attacks.NewSchedulingAttack(0, forks)})
	swept := make([]int, 0, len(niceLevels))
	for _, nice := range niceLevels {
		swept = append(swept, mx.Add(RunSpec{Opts: o, Workload: victim, Attack: attacks.NewSchedulingAttack(nice, forks)}))
	}
	outs, err := mx.Run(o.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}

	addPair("no attack", outs[vAlone], outs[fAlone])
	for i, nice := range niceLevels {
		group := "nice"
		if nice != 0 {
			group = fmt.Sprintf("nice%d", nice)
		}
		addPair(group, outs[swept[i]], outs[swept[i]])
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("fork storm: %d forks (paper: 2^21; scaled for tractable simulation)", forks),
		"expectation: victim's billed time rises as attacker priority rises; Fork's falls; sum ~constant")
	return fig, nil
}

// AttackerUser sums attacker user seconds under a scheme.
func (r *RunOut) AttackerUser(scheme string) float64 {
	var t float64
	for _, a := range r.Attackers {
		t += a.User[scheme]
	}
	return t
}

// AttackerSys sums attacker system seconds under a scheme.
func (r *RunOut) AttackerSys(scheme string) float64 {
	var t float64
	for _, a := range r.Attackers {
		t += a.Sys[scheme]
	}
	return t
}

// Figure7 reproduces the scheduling attack on Whetstone.
func Figure7(o Options) (*Figure, error) {
	return schedulingSweep(o, "Figure 7", "W")
}

// Figure8 reproduces the scheduling attack on Brute: the threaded
// victim absorbs no significant inflation.
func Figure8(o Options) (*Figure, error) {
	fig, err := schedulingSweep(o, "Figure 8", "B")
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: no significant change for B — threads scheduled as processes spread the sampling error across per-task rusage",
		"this reproduction bills the whole thread group as one entity, re-aggregating the spread error; see EXPERIMENTS.md")
	return fig, nil
}

// Figure9 reproduces the execution-thrashing attack: watchpoint
// storms inflate mostly system time, proportional to hit counts
// (paper: O/P ~10^7 scaled to 10^6, W 2x10^5, B ~8.95x10^5).
func Figure9(o Options) (*Figure, error) {
	o = o.norm()
	touches := func(key string) uint64 {
		spec, _ := workloadSpec(key)
		n := uint64(float64(spec.DefaultThrashTouches) * o.Scale)
		if n < 100 {
			n = 100
		}
		return n
	}
	fig, err := perProgramFigure(o, "Figure 9", "Execution Thrashing Attack", touches, func() attacks.Attack {
		return attacks.NewThrashingAttack(0)
	})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"watchpoints on each program's hot variable (O: loop counter, P: y, W: T1, B: count)",
		"expectation: system time rises sharply; ordering follows watchpoint hit counts")
	return fig, nil
}

// Figure10 reproduces the interrupt flooding attack: junk packets
// slightly inflate every program's system time.
func Figure10(o Options) (*Figure, error) {
	o = o.norm()
	fig, err := perProgramFigure(o, "Figure 10", "Interrupt Flooding Attack", nil, func() attacks.Attack {
		return attacks.NewInterruptFloodAttack(40_000)
	})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"40k junk packets/s raise one NIC rx interrupt each; handler time lands on the current task",
		"expectation: slight system-time increase on all four programs")
	return fig, nil
}

// Figure11 reproduces the exception flooding attack: a >2x-RAM
// memory hog forces victim page faults.
func Figure11(o Options) (*Figure, error) {
	o = o.norm()
	if o.PhysMemBytes == 0 {
		o.PhysMemBytes = 1 << 30
	}
	fig, err := perProgramFigure(o, "Figure 11", "Exception Flooding Attack", nil, func() attacks.Attack {
		return attacks.NewExceptionFloodAttack(2 * o.PhysMemBytes)
	})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("hog requests 2x physical memory (%d MiB RAM) and continuously re-dirties it", o.PhysMemBytes>>20),
		"expectation: system time increases via page-fault handling and swap-I/O completions; bounded (paper: weakest attack)")
	return fig, nil
}
