package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus/kernelgen"
	"repro/internal/obs"
)

// serveRate is R, the open-loop rate of both serve workloads: about half of
// serve_fresh's saturated_rps on the commit that added this benchmark
// (2-core container). It is frozen so that later commits are measured at
// the same offered load.
const serveRate = 20.0

// refBlock is how many reference-kernel samples a serve round takes while
// no request is in flight: before the open loop, between the two load
// phases, and after the daemon has exited.
const refBlock = 8

// replaySample is how many serve inputs the traced run re-scans in process
// to time the frontend, lower, call-graph and report layers.
const replaySample = 10

// request is one pre-built POST /v1/analyze body with its ground truth.
type request struct {
	body   []byte
	truth  map[string]kernelgen.BugInfo
	traced bool
}

// exchange is one HTTP reply as the load generator received it.
type exchange struct {
	status int
	body   []byte
	id     string
}

// reply is what the benchmark keeps of one correct response.
type reply struct {
	id      string
	funcs   int
	elapsed float64 // the daemon's own analysis time, ms
	bytes   int     // report bytes
	snap    *obs.Snapshot
}

func newRequest(files map[string]string, truth map[string]kernelgen.BugInfo, traced bool) (request, error) {
	body, err := json.Marshal(struct {
		Files   map[string]string `json:"files"`
		Format  string            `json:"format"`
		NoCache bool              `json:"no_cache"`
		Metrics bool              `json:"metrics,omitempty"`
	}{files, "json", true, traced})
	return request{body: body, truth: truth, traced: traced}, err
}

// runServe measures a serve workload over o.sched.rounds fresh daemons.
// Each round: start the daemon, wait for /healthz, (serve_edit: populate
// the store cold), warm up; then o.sched.open requests in an open loop at
// serveRate, and o.sched.ops in a closed loop on every connection.
func runServe(o options, w workload, seed int64, r *run) error {
	ctx := context.Background()
	conns := min(2, runtime.NumCPU())

	var base *kernelgen.Corpus
	var sites []editSite
	if w.edit {
		base = w.corpus(seed)
		if sites = editSites(base); len(sites) == 0 {
			return fmt.Errorf("%s: no edit sites in the base tree", w.name)
		}
	}
	// input is the tree of op id: a fresh tree from seed+id, or the base
	// tree with edit id.
	input := func(id int64) (map[string]string, map[string]kernelgen.BugInfo) {
		if w.edit {
			return sites[id%int64(len(sites))].apply(base.Files, int(id)), base.Truth
		}
		c := w.corpus(seed + id)
		return c.Files, c.Truth
	}
	mkAll := func(first int64, n int, traced func(int) bool) ([]request, error) {
		reqs := make([]request, n)
		for i := range reqs {
			var err error
			files, truth := input(first + int64(i))
			if reqs[i], err = newRequest(files, truth, traced(i)); err != nil {
				return nil, err
			}
		}
		return reqs, nil
	}

	var next int64
	for round := 0; round < o.sched.rounds; round++ {
		warm, err := mkAll(warmSeedBase+next, o.sched.warmups, func(int) bool { return false })
		if err != nil {
			return err
		}
		open, err := mkAll(next, o.sched.open, func(i int) bool { return o.trace && i%2 == 1 })
		if err != nil {
			return err
		}
		sat, err := mkAll(next+int64(o.sched.open), o.sched.ops, func(int) bool { return false })
		if err != nil {
			return err
		}
		rt, err := serveRound(ctx, o, w, base, warm, open, sat, conns, next)
		if err != nil {
			return err
		}
		r.addRound(rt)
		next += int64(o.sched.open + o.sched.ops)
	}
	if !o.trace {
		return nil
	}
	rt := newTally()
	rt.sampleReference()
	for id := int64(0); id < replaySample; id++ {
		files, _ := input(id)
		out, err := layered(files, 1, nil, int(id))
		if err != nil {
			return fmt.Errorf("layer replay: %w", err)
		}
		for _, k := range []string{"frontend.parse_ms", "frontend.parse_mb_per_s", "lower.lower_ms",
			"lower.ir_instrs", "callgraph.build_ms", "callgraph.sccs", "report.render_ms"} {
			rt.layers[k] = append(rt.layers[k], out.layers[k])
		}
	}
	r.addRound(rt)
	return nil
}

// serveRound runs one daemon through set-up, the open loop and the
// saturation phase, and returns what it measured.
func serveRound(ctx context.Context, o options, w workload, base *kernelgen.Corpus,
	warm, open, sat []request, conns int, first int64) (*tally, error) {
	t := newTally()
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, first))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	load := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer load.CloseIdleConnections()

	t0 := time.Now()
	d, err := startDaemon(o.ridBin, dir, w.edit)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // an earlier error is the one to report
		}
	}()
	if err := d.healthy(ctx); err != nil {
		return nil, err
	}
	url := d.url + "/v1/analyze"
	// baseReport is serve_edit's expected report: an edit moves no line, so
	// every edited tree must report exactly what the unedited one did.
	var baseReport string
	check := func(rq request, ex exchange) (reply, string, error) {
		resp, err := checkResponse(ex.status, ex.body, rq.truth)
		if err != nil {
			return reply{}, "", err
		}
		if baseReport != "" && resp.Report != baseReport {
			return reply{}, "", fmt.Errorf("edited tree's report differs from the unedited tree's")
		}
		rp := reply{id: ex.id, funcs: resp.FuncsTotal, elapsed: resp.ElapsedMS, bytes: len(resp.Report)}
		if rq.traced {
			rp.snap = new(obs.Snapshot)
			if err := json.Unmarshal(resp.Metrics, rp.snap); err != nil {
				return reply{}, "", fmt.Errorf("decode metrics: %w", err)
			}
		}
		return rp, resp.Report, nil
	}
	// Load-phase replies are checked only after their phase, so that the
	// load generator takes as little CPU from the daemon as it can.
	send := func(reqs []request, exs []exchange) func(context.Context, int) error {
		return func(ctx context.Context, i int) error {
			var err error
			exs[i], err = post(ctx, load, url, reqs[i].body)
			return err
		}
	}
	setupReq := func(rq request) (string, error) {
		ex, err := post(ctx, load, url, rq.body)
		if err != nil {
			return "", err
		}
		_, report, err := check(rq, ex)
		return report, err
	}
	if w.edit {
		// The cold populate is the store's write path and part of set-up.
		populate, err := newRequest(base.Files, base.Truth, false)
		if err != nil {
			return nil, err
		}
		if baseReport, err = setupReq(populate); err != nil {
			return nil, fmt.Errorf("%s populate: %w", w.name, err)
		}
	}
	for _, rq := range warm {
		_, err := setupReq(rq)
		t.add(errString(err))
	}
	t.setups = append(t.setups, time.Since(t0).Seconds())

	t.sampleReference()
	m0, err := scrapeMem(ctx, d.url)
	if err != nil {
		return nil, err
	}
	openEx := make([]exchange, len(open))
	openS := drive(ctx, phase{Rate: serveRate, Conns: conns, N: len(open)}, send(open, openEx))
	t.sampleReference()
	satEx := make([]exchange, len(sat))
	satStart := time.Now()
	satS := drive(ctx, phase{Conns: conns, N: len(sat)}, send(sat, satEx))
	m1, err := scrapeMem(ctx, d.url)
	if err != nil {
		return nil, err
	}
	stopped = true
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	t.rss = append(t.rss, rss)
	t.sampleReference()
	access, err := readAccessLog(d.log)
	if err != nil {
		return nil, err
	}

	// checked applies the oracle to a phase's replies, counts every request
	// as attempted, and returns the correct replies (nil for a failure).
	checked := func(reqs []request, exs []exchange, ss []sample) []*reply {
		out := make([]*reply, len(ss))
		for i, s := range ss {
			err := s.Err
			var rp reply
			if err == nil {
				rp, _, err = check(reqs[i], exs[i])
			}
			t.add(errString(err))
			if err == nil {
				out[i] = &rp
				t.funcs += float64(rp.funcs)
				t.busy += s.service().Seconds()
			}
		}
		return out
	}
	openRep := checked(open, openEx, openS)
	for i, s := range openS {
		rp := openRep[i]
		if rp == nil {
			continue
		}
		t.late = append(t.late, ms(s.late()))
		t.connWait = append(t.connWait, ms(s.connWait()))
		if !open[i].traced {
			t.lat = append(t.lat, ms(s.latency()))
			continue
		}
		t.tracedLat = append(t.tracedLat, ms(s.latency()))
		op := int(first) + i
		t.spans = append(t.spans,
			newSpan(op, "request", "", s.Due, s.Done),
			newSpan(op, "loadgen.wait", "request", s.Due, s.Sent),
			newSpan(op, "serve.client", "request", s.Sent, s.Done))
		t.addLayers(serveLayers(*rp, s, access[rp.id]))
	}
	satRep := checked(sat, satEx, satS)
	if done, rate := closedRate(satStart, satS, func(i int) bool { return satRep[i] != nil }); done > 0 {
		t.satN += done
		t.satS += float64(done) / rate
	}
	n := float64(len(openS) + len(satS))
	t.allocs += float64(m1.Mallocs - m0.Mallocs)
	t.allocOps += len(openS) + len(satS)
	t.layers["runtime.gc_cycles"] = append(t.layers["runtime.gc_cycles"], float64(m1.NumGC-m0.NumGC)/n)
	t.layers["runtime.gc_pause_ms"] = append(t.layers["runtime.gc_pause_ms"], float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/n)
	t.layers["runtime.alloc_mb"] = append(t.layers["runtime.alloc_mb"], float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/n)
	return t, nil
}

// serveLayers splits one traced request. The daemon's per-request registry
// gives the pipeline phases; its access log gives the handler's whole time
// and admission wait; the response gives the analysis time; the client
// clock gives the rest.
func serveLayers(rp reply, s sample, a accessLine) map[string]float64 {
	l := map[string]float64{}
	layersFromSnapshot(*rp.snap, l)
	phase := func(ph obs.Phase) float64 { return float64(rp.snap.Phase(ph).Total) / 1e6 }
	run := phase(obs.PhaseRun)
	covered := 0.0
	// Workers=1 in the daemon: the top-level phases run one after another.
	for _, ph := range []obs.Phase{obs.PhaseClassify, obs.PhaseEnumerate, obs.PhaseExec, obs.PhaseIPP,
		obs.PhaseCacheIO, obs.PhaseReplay, obs.PhaseSteal, obs.PhaseQueue} {
		covered += phase(ph)
	}
	client := ms(s.service())
	server := float64(a.ElapsedUS) / 1e3
	admit := float64(a.QueueWaitUS) / 1e3
	l["core.analyze_ms"] = run
	l["core.unattributed_ms"] = run - covered
	l["report.bytes"] = float64(rp.bytes)
	l["serve.client_ms"] = client
	l["serve.server_ms"] = server
	l["serve.admit_wait_ms"] = admit
	l["serve.wire_ms"] = client - server
	l["serve.codec_ms"] = server - admit - rp.elapsed
	l["serve.frontend_render_ms"] = rp.elapsed - run
	return l
}

func (t *tally) sampleReference() {
	for i := 0; i < refBlock; i++ {
		t.refs = append(t.refs, float64(reference()))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (exchange, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return exchange{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	r, err := c.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	return exchange{status: r.StatusCode, body: data, id: r.Header.Get("X-Rid-Request-Id")}, err
}

// daemon is one `rid serve` child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  string        // access-log path
	done chan struct{} // closed once stderr is drained (the process has exited)
	tail strings.Builder
}

// startDaemon starts `rid serve` on a free loopback port and returns once
// it has printed the address it listens on.
func startDaemon(ridBin, dir string, store bool) (*daemon, error) {
	d := &daemon{log: filepath.Join(dir, "access.jsonl"), done: make(chan struct{})}
	args := []string{"serve", "-addr", "127.0.0.1:0", "-max-inflight", "2", "-quiet", "-access-log", d.log}
	if store {
		args = append(args, "-cache-dir", filepath.Join(dir, "store"))
	}
	d.cmd = exec.Command(ridBin, args...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rid serve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		listening := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 && !listening {
				u, _, _ := strings.Cut(line[i:], " ")
				addr <- u
				listening = true
				continue
			}
			if d.tail.Len() < 4096 {
				d.tail.WriteString(line + "\n")
			}
		}
	}()
	select {
	case d.url = <-addr:
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // reported below
		<-d.done
	}
	d.cmd.Wait() //nolint:errcheck // the daemon's stderr says more
	return nil, fmt.Errorf("rid serve did not start: %s", strings.TrimSpace(d.tail.String()))
}

// healthy polls /healthz until the daemon answers 200.
func (d *daemon) healthy(ctx context.Context) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if r, err := c.Do(req); err == nil {
			io.Copy(io.Discard, r.Body) //nolint:errcheck // only the status matters
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rid serve at %s never became healthy", d.url)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the daemon, waits for it to drain and exit, and returns
// its peak resident set.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // Wait reports the outcome
		<-d.done
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("rid serve: %w: %s", err, strings.TrimSpace(d.tail.String()))
	}
	return maxRSSMiB(d.cmd.ProcessState), nil
}

// memVars are the runtime.MemStats fields of the daemon's /debug/vars.
type memVars struct {
	Mallocs      uint64
	TotalAlloc   uint64
	PauseTotalNs uint64
	NumGC        uint32
}

func scrapeMem(ctx context.Context, url string) (memVars, error) {
	var v struct {
		Memstats memVars `json:"memstats"`
	}
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/debug/vars", nil)
	if err != nil {
		return v.Memstats, err
	}
	r, err := c.Do(req)
	if err != nil {
		return v.Memstats, err
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		return v.Memstats, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Memstats, nil
}

// accessLine holds the fields of one rid serve access-log line the
// benchmark reads.
type accessLine struct {
	ID          string `json:"id"`
	QueueWaitUS int64  `json:"queue_wait_us"`
	ElapsedUS   int64  `json:"elapsed_us"`
}

func readAccessLog(path string) (map[string]accessLine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]accessLine{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var a accessLine
		if err := json.Unmarshal(line, &a); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[a.ID] = a
	}
	return out, nil
}
