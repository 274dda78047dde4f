package remote_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/promtext"
	"repro/internal/store"
	"repro/internal/store/remote"
	"repro/internal/store/storetest"
	"repro/internal/sym"
)

// health mirrors the /healthz fields the soak asserts on.
type health struct {
	Status  string `json:"status"`
	Entries int    `json:"entries"`
	Gets    int64  `json:"gets_total"`
	Puts    int64  `json:"puts_total"`
	BadPuts int64  `json:"bad_puts_total"`
	Corrupt int64  `json:"corrupt_entries_total"`
}

func getHealth(url string) (health, error) {
	var h health
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return h, fmt.Errorf("GET /healthz: %w", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decode /healthz: %w", err)
	}
	return h, nil
}

// TestSoakConcurrentClients hammers one server with 8 clients sharing a
// 40-function working set: every put is digest-addressed and idempotent
// (the same bytes land many times over), every load after a save must
// hit, and the server's counters only ever move forward. Run under
// -race, this is the data-race oracle for the whole wire path.
func TestSoakConcurrentClients(t *testing.T) {
	_, url := startServer(t, remote.ServerConfig{})
	const (
		clients = 8
		funcs   = 40
		rounds  = 3
	)

	fns := make([]string, funcs)
	names := make([]string, funcs)
	digests := make([]store.Digest, funcs)
	for i := range fns {
		fns[i] = fmt.Sprintf("soak_fn_%03d", i)
		names[i] = store.EntryName(fns[i])
		copy(digests[i][:], fns[i])
	}

	// Monotonicity monitor: counters sampled while the soak runs must
	// never move backward.
	stop := make(chan struct{})
	var monitorDone sync.WaitGroup
	monitorDone.Add(1)
	go func() {
		defer monitorDone.Done()
		var last health
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			h, err := getHealth(url)
			if err != nil {
				t.Error(err)
				return
			}
			if h.Gets < last.Gets || h.Puts < last.Puts || h.Entries < last.Entries {
				t.Errorf("counters moved backward: %+v then %+v", last, h)
				return
			}
			last = h
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client, _ := newTestClient(t, remote.Config{URL: url})
		wg.Add(1)
		go func(c int, client *remote.Client) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range fns {
					// All clients race to publish the same content; the
					// digest-addressed put must converge, never error.
					if err := client.Save(fns[i], digests[i], storetest.Entry(fns[i])); err != nil {
						t.Errorf("client %d round %d: Save(%s): %v", c, r, fns[i], err)
						return
					}
					e, err := client.Load(sym.NewTable(), fns[i], digests[i])
					if err != nil || e == nil || e.Fn != fns[i] {
						t.Errorf("client %d round %d: Load(%s) = (%v, %v), want hit", c, r, fns[i], e, err)
						return
					}
				}
				has, err := client.HasBatch(names)
				if err != nil {
					t.Errorf("client %d round %d: HasBatch: %v", c, r, err)
					return
				}
				for i, ok := range has {
					if !ok {
						t.Errorf("client %d round %d: HasBatch says %s is absent after saving it", c, r, fns[i])
						return
					}
				}
			}
		}(c, client)
	}
	wg.Wait()
	close(stop)
	monitorDone.Wait()

	h, err := getHealth(url)
	if err != nil {
		t.Fatal(err)
	}
	if h.Entries != funcs {
		t.Errorf("server holds %d entries, want %d (idempotent puts must converge)", h.Entries, funcs)
	}
	if h.BadPuts != 0 || h.Corrupt != 0 {
		t.Errorf("bad_puts=%d corrupt=%d, want 0/0", h.BadPuts, h.Corrupt)
	}
	if want := int64(clients * rounds * funcs); h.Gets < want {
		t.Errorf("gets_total = %d, want at least %d", h.Gets, want)
	}
	if want := int64(clients * rounds * funcs); h.Puts < want {
		t.Errorf("puts_total = %d, want at least %d", h.Puts, want)
	}
	checkHealthMatchesMetrics(t, url)
}

// checkHealthMatchesMetrics reads /healthz and /metrics once each and
// requires every /healthz counter (a *_total key) and the inflight and
// queued gauges to equal their rid_storeserve_* series.
func checkHealthMatchesMetrics(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	err = json.NewDecoder(resp.Body).Decode(&fields)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	series := map[string]string{"rejected_total": "rid_storeserve_admission_rejected_total"}
	for key, v := range fields {
		name, ok := series[key]
		switch {
		case ok:
		case strings.HasSuffix(key, "_total"), key == "inflight", key == "queued":
			name = "rid_storeserve_" + key
		default:
			continue
		}
		got, ok := fams.Value(name, nil)
		if !ok {
			t.Errorf("/healthz %s = %v has no /metrics series %s", key, v, name)
		} else if got != v.(float64) {
			t.Errorf("/healthz %s = %v, /metrics %s = %v", key, v, name, got)
		}
	}
}
