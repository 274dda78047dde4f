package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// writeSnapshotJSON renders s as one JSON object with fixed field order
// (struct order), shared by /debug/vars and `rid -metrics -format json`.
func writeSnapshotJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// WriteJSON renders the snapshot as a single JSON object followed by a
// newline. Durations are integer nanoseconds.
func (s Snapshot) WriteJSON(w io.Writer) error {
	return writeSnapshotJSON(w, s)
}

// WriteText renders the snapshot in a stable human-readable layout: one
// `counter <name> <value>` line per metric in fixed order, then one
// `phase <name> count=N total=... p50=... p95=... max=...` line per phase.
// The line set and ordering are deterministic — goldens can compare the
// counter lines verbatim.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %-18s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, p := range s.Phases {
		if _, err := fmt.Fprintf(w, "phase %-10s count=%d total=%s p50=%s p95=%s max=%s\n",
			p.Phase, p.Count,
			p.Total.Round(time.Microsecond),
			p.P50.Round(time.Microsecond),
			p.P95.Round(time.Microsecond),
			p.Max.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	for _, wk := range s.Workers {
		if _, err := fmt.Fprintf(w, "worker %-3d tasks=%d busy=%s\n",
			wk.Worker, wk.Tasks, wk.Busy.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}
