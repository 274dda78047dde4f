package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/lockgen"
	"repro/internal/lower"
	"repro/internal/spec"
)

// GroundTruth is the pack-neutral label of one corpus function: every
// generator's BugInfo maps onto it, so one scorer serves the refcount,
// lock and fd corpora alike.
type GroundTruth struct {
	Real       bool // the function contains a real bug
	Detectable bool // the bug is within RID's reach (an IPP exists)
	FPExpected bool // correct code on which RID is expected to report
}

// PackScore is the precision/recall of one analysis run against ground
// truth. Recall is measured over the detectable bugs only — bugs outside
// the abstraction's reach (consistent imbalances, disjoint constant
// returns) are by construction invisible to any IPP checker.
type PackScore struct {
	Pack      string
	TP        int // reported, detectable bug
	FP        int // reported, no real bug
	FN        int // detectable bug, not reported
	Precision float64
	Recall    float64
	Missed    []string // FN function names, sorted
	Spurious  []string // FP function names, sorted
}

// Score grades a reported-function set against ground truth. Reports on
// functions absent from truth (e.g. wrappers) count as false positives.
func Score(pack string, truth map[string]GroundTruth, reported map[string]bool) PackScore {
	s := PackScore{Pack: pack}
	for fn, gt := range truth {
		switch {
		case gt.Real && gt.Detectable:
			if reported[fn] {
				s.TP++
			} else {
				s.FN++
				s.Missed = append(s.Missed, fn)
			}
		case reported[fn] && !gt.Real:
			s.FP++
			s.Spurious = append(s.Spurious, fn)
		}
	}
	for fn := range reported {
		if _, ok := truth[fn]; !ok {
			s.FP++
			s.Spurious = append(s.Spurious, fn)
		}
	}
	sort.Strings(s.Missed)
	sort.Strings(s.Spurious)
	if s.TP+s.FP > 0 {
		s.Precision = float64(s.TP) / float64(s.TP+s.FP)
	}
	if s.TP+s.FN > 0 {
		s.Recall = float64(s.TP) / float64(s.TP+s.FN)
	}
	return s
}

// PackEval runs the lock-imbalance and fd-leak packs over their seeded
// corpora and scores them. The same seeds feed the tier-1 gate and the
// EXPERIMENTS.md table.
func PackEval(ctx context.Context, seed int64, workers int) ([]PackScore, error) {
	var out []PackScore

	lc := lockgen.Generate(lockgen.Config{Seed: seed, Mix: lockgen.DefaultMix()})
	ls, err := evalCorpus(ctx, "lock", lc.Files, lockTruth(lc), spec.Lock(), workers)
	if err != nil {
		return nil, err
	}
	out = append(out, ls)

	fc := fdgen.Generate(fdgen.Config{Seed: seed, Mix: fdgen.DefaultMix()})
	fs, err := evalCorpus(ctx, "fd", fc.Files, fdTruth(fc), spec.FD(), workers)
	if err != nil {
		return nil, err
	}
	out = append(out, fs)
	return out, nil
}

func lockTruth(c *lockgen.Corpus) map[string]GroundTruth {
	truth := make(map[string]GroundTruth, len(c.Truth)+len(c.Wrappers))
	for fn, info := range c.Truth {
		truth[fn] = GroundTruth{Real: info.Real, Detectable: info.Detectable, FPExpected: info.FPExpected}
	}
	// Wrappers are correct by construction: a report on one is an FP.
	for _, w := range c.Wrappers {
		truth[w] = GroundTruth{}
	}
	return truth
}

func fdTruth(c *fdgen.Corpus) map[string]GroundTruth {
	truth := make(map[string]GroundTruth, len(c.Truth))
	for fn, info := range c.Truth {
		truth[fn] = GroundTruth{Real: info.Real, Detectable: info.Detectable, FPExpected: info.FPExpected}
	}
	return truth
}

func evalCorpus(ctx context.Context, pack string, files map[string]string, truth map[string]GroundTruth, sp *spec.Specs, workers int) (PackScore, error) {
	prog, err := lower.Program(files, lower.Options{})
	if err != nil {
		return PackScore{}, fmt.Errorf("%s corpus: %w", pack, err)
	}
	res := core.Analyze(ctx, prog, sp, core.Options{Workers: workers})
	reported := make(map[string]bool, len(res.Reports))
	for _, r := range res.Reports {
		reported[r.Fn] = true
	}
	return Score(pack, truth, reported), nil
}

// FormatPackScores renders the per-pack precision/recall table for
// EXPERIMENTS.md and ridbench -packs.
func FormatPackScores(scores []PackScore) string {
	out := "Spec packs: precision/recall on seeded corpora\n"
	out += "  pack   TP  FP  FN  precision  recall\n"
	for _, s := range scores {
		out += fmt.Sprintf("  %-5s %4d %3d %3d     %6.3f  %6.3f\n",
			s.Pack, s.TP, s.FP, s.FN, s.Precision, s.Recall)
	}
	return out
}
