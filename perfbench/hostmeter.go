package main

import (
	"fmt"

	"repro"
	"repro/internal/attacks"
)

// hostSettings are the ablations' scheduler and timer settings; host-
// meter passes cycle through them, each with its own seed.
var hostSettings = []struct {
	policy string
	hz     uint64
}{{"o1", 250}, {"cfs", 250}, {"o1", 1000}, {"cfs", 1000}}

// hostAttacks builds each of the paper's seven attacks at the
// strengths the figures use for the given scale, after a nil entry
// for the job without attack. Constructors, so every job arms a fresh
// attack.
func hostAttacks(scale float64) []func() cpumeter.Attack {
	freq := cpumeter.DefaultCPUHz
	payload := cpumeter.Cycles(34 * scale * float64(freq))
	forks := uint64(float64(attacks.DefaultSchedulingForks) * scale)
	if forks < 512 {
		forks = 512
	}
	return []func() cpumeter.Attack{
		func() cpumeter.Attack { return nil },
		func() cpumeter.Attack { return &attacks.ShellAttack{PayloadCycles: payload} },
		func() cpumeter.Attack { return &attacks.LibraryCtorAttack{PayloadCycles: payload} },
		func() cpumeter.Attack { return attacks.NewLibrarySubstitutionAttack(freq) },
		func() cpumeter.Attack { return attacks.NewSchedulingAttack(-20, forks) },
		func() cpumeter.Attack { return attacks.NewThrashingAttack(0) },
		func() cpumeter.Attack { return attacks.NewInterruptFloodAttack(40_000) },
		func() cpumeter.Attack { return attacks.NewExceptionFloodAttack(2 << 30) },
	}
}

// cleanOutputs runs every victim program once without attack per
// seed and returns the outputs attacked jobs must reproduce, by seed
// index and program.
func cleanOutputs(cfg config, tr *tracer, seeds int, programs []string) ([]map[string]string, error) {
	clean := make([]map[string]string, seeds)
	for i := range clean {
		clean[i] = map[string]string{}
		for _, w := range programs {
			sp := tr.begin("experiments", "Meter")
			out, err := cpumeter.Meter(cpumeter.JobSpec{Workload: w, Options: cpumeter.Options{Seed: passSeed(cfg.seed, i), Scale: cfg.scale, Parallelism: 1}})
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("clean run of %s: %w", w, err)
			}
			if out.Result == nil || !out.Result.Done {
				return nil, fmt.Errorf("clean run of %s did not finish", w)
			}
			clean[i][w] = out.Result.Output
		}
	}
	return clean, nil
}

// setupHostMeter plans passes of the 4 victims x {no attack, 7
// attacks} matrix, each pass under the next setting and its seed.
// Set-up runs the clean jobs the output checks compare against.
func setupHostMeter(cfg config, tr *tracer) (*plan, error) {
	programs := cpumeter.WorkloadKeys()
	clean, err := cleanOutputs(cfg, tr, len(hostSettings), programs)
	if err != nil {
		return nil, err
	}
	makers := hostAttacks(cfg.scale)
	p := &plan{passOps: len(programs) * len(makers), eventDepth: 8}
	for i, set := range hostSettings {
		opts := cpumeter.Options{Seed: passSeed(cfg.seed, i), Scale: cfg.scale, HZ: set.hz, SchedulerPolicy: set.policy, Parallelism: 1}
		for _, w := range programs {
			for _, mk := range makers {
				name := "none"
				if a := mk(); a != nil {
					name = a.Key()
				}
				key := fmt.Sprintf("%s-%d/%s/%s", set.policy, set.hz, w, name)
				want := clean[i][w]
				p.ops = append(p.ops, op{key: key, run: func(tr *tracer) (result, error) {
					spec := cpumeter.JobSpec{Workload: w, Attack: mk(), Options: opts}
					sp := tr.begin("experiments", "Meter")
					out, err := cpumeter.Meter(spec)
					tr.end(sp)
					if err != nil {
						return result{}, err
					}
					return result{
						parts:    runParts(out),
						counts:   runCounts(out),
						problems: checkVictim(key, out, want),
					}, nil
				}})
			}
		}
	}
	return p, nil
}
