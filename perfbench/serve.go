package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowutil"
	"lowutil/client"
	"lowutil/internal/server"
)

// service is an in-process lowutil server behind a loopback listener.
type service struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns

	stopOnce sync.Once
	stopErr  error
}

// startService starts server.New with its default configuration; only the
// request log is discarded, so the terminal does not become the bottleneck.
func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return and drains the
// job queue. Later calls return the first call's error.
func (s *service) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.stopErr = s.hs.Shutdown(ctx)
		<-s.done
		s.srv.Close()
	})
	return s.stopErr
}

// countingTransport counts the responses the client SDK retries: transport
// errors, 429 admission rejections and 5xx replies.
type countingTransport struct {
	base    *http.Transport
	retries atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		t.retries.Add(1)
	}
	return resp, err
}

// mixClient is one closed-loop caller: its own SDK client over its own
// single connection.
type mixClient struct {
	tr *countingTransport
	hc *http.Client
	cl *client.Client
}

func newMixClient(url string) *mixClient {
	tr := &countingTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	hc := &http.Client{Transport: tr}
	return &mixClient{tr: tr, hc: hc, cl: client.New(url, client.WithHTTPClient(hc))}
}

// audit calls POST /v2/audit, which the SDK has no method for, with the
// SDK's HTTP client.
func (mc *mixClient) audit(ctx context.Context, url, session string) (*client.ReportResult, error) {
	body, err := json.Marshal(map[string]string{"session": session})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/audit", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := mc.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("audit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var out client.ReportResult
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	return &out, nil
}

// call is one HTTP call of the mix, timed by the client.
type call struct {
	Endpoint string
	MS       float64
	Hit      bool // the server answered from its memo
	target
}

// mixStats is what the clients observed; an operation is one request.
type mixStats struct {
	requests
	calls   []call
	jobWait []float64 // submit returned -> "started" received, ms
	jobRun  []float64 // "started" -> "done" received, ms
}

// mixRunner drives the served mix against one service.
type mixRunner struct {
	url      string
	refs     []*ref
	sessions []string // per program, learned at warm-up
	tr       *tracer  // nil when untraced
}

// warmUp compiles every program once through the SDK, recording the
// session IDs every later compile must return.
func (m *mixRunner) warmUp(ctx context.Context) error {
	mc := newMixClient(m.url)
	defer mc.hc.CloseIdleConnections()
	m.sessions = make([]string, len(m.refs))
	for i, r := range m.refs {
		res, err := mc.cl.Compile(ctx, r.Src)
		if err != nil {
			return fmt.Errorf("warm-up compile %s: %w", r.Name, err)
		}
		if res.Instructions != r.Instrs {
			return fmt.Errorf("warm-up compile %s: %d instructions, want %d", r.Name, res.Instructions, r.Instrs)
		}
		m.sessions[i] = res.Session
	}
	return nil
}

// run sends each client's operations in a closed loop until deadline and
// returns the merged observations, retries included.
func (m *mixRunner) run(ctx context.Context, mixes [][]op, deadline time.Time) *mixStats {
	stats := make([]*mixStats, len(mixes))
	clients := make([]*mixClient, len(mixes))
	var wg sync.WaitGroup
	for c := range mixes {
		stats[c] = &mixStats{}
		clients[c] = newMixClient(m.url)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m.runClient(ctx, clients[c], mixes[c], deadline, stats[c])
		}(c)
	}
	wg.Wait()
	all := &mixStats{}
	for c, st := range stats {
		all.cpu = append(all.cpu, st.cpu...)
		all.wall = append(all.wall, st.wall...)
		all.calls = append(all.calls, st.calls...)
		all.jobWait = append(all.jobWait, st.jobWait...)
		all.jobRun = append(all.jobRun, st.jobRun...)
		all.attempted += st.attempted
		all.failed += st.failed
		all.errs = append(all.errs, st.errs...)
		all.retries += clients[c].tr.retries.Load()
		clients[c].hc.CloseIdleConnections()
	}
	return all
}

func (m *mixRunner) runClient(ctx context.Context, mc *mixClient, ops []op, deadline time.Time, st *mixStats) {
	for i := 0; time.Now().Before(deadline); i++ {
		o := ops[i%len(ops)]
		if o.Kind == opJobs && i >= len(ops) {
			o.Key += "-" + strconv.Itoa(i/len(ops))
		}
		span := m.tr.begin("request", 0)
		t0 := now()
		err := m.do(ctx, mc, o, st, span)
		e := t0.since()
		m.tr.end(span)
		st.attempted++
		if err != nil {
			what := m.refs[o.Prog].Name
			if o.Kind == opJobs {
				what = o.Key
			}
			st.fail(fmt.Errorf("%s %s: %w", o.Kind, what, err))
			e = failedRequest
		}
		st.record(e)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// timed runs one HTTP call under a span and records it.
func (m *mixRunner) timed(st *mixStats, parent int32, endpoint string, t target, f func() (bool, error)) error {
	span := m.tr.begin("server."+endpoint, parent)
	t0 := time.Now()
	hit, err := f()
	ms := msSince(t0)
	m.tr.end(span)
	if err == nil {
		st.calls = append(st.calls, call{Endpoint: endpoint, MS: ms, Hit: hit, target: t})
	}
	return err
}

// compile compiles the target's program and checks the session.
func (m *mixRunner) compile(ctx context.Context, mc *mixClient, t target, st *mixStats, parent int32) (string, error) {
	r := m.refs[t.Prog]
	var sess string
	err := m.timed(st, parent, opCompile, t, func() (bool, error) {
		res, err := mc.cl.Compile(ctx, r.Src)
		if err != nil {
			return false, err
		}
		if res.Session != m.sessions[t.Prog] || res.Instructions != r.Instrs {
			return false, fmt.Errorf("compile: session %s with %d instructions, want %s with %d",
				res.Session, res.Instructions, m.sessions[t.Prog], r.Instrs)
		}
		sess = res.Session
		return res.CacheHit, nil
	})
	return sess, err
}

func (m *mixRunner) do(ctx context.Context, mc *mixClient, o op, st *mixStats, parent int32) error {
	if o.Kind == opJobs {
		return m.doJobs(ctx, mc, o, st, parent)
	}
	sess, err := m.compile(ctx, mc, o.target, st, parent)
	if err != nil || o.Kind == opCompile {
		return err
	}
	r := m.refs[o.Prog]
	cfg := profileConfigs[o.Config]
	req := client.ProfileRequest{Session: sess, Slots: cfg.Slots, TreeHeight: cfg.TreeHeight}
	return m.timed(st, parent, o.Kind, o.target, func() (bool, error) {
		switch o.Kind {
		case opProfile:
			res, err := mc.cl.Profile(ctx, req)
			if err != nil {
				return false, err
			}
			return res.CacheHit, checkProfile(r, o.Config, res)
		case opReport:
			res, err := mc.cl.Report(ctx, req)
			if err != nil {
				return false, err
			}
			return res.CacheHit, checkDigest("report", digest(res.Report), r.Report[o.Config])
		default:
			res, err := mc.audit(ctx, m.url, sess)
			if err != nil {
				return false, err
			}
			return res.CacheHit, checkDigest("audit", digest(res.Report), r.Audit)
		}
	})
}

// doJobs submits a batch, follows the first job's event stream (timing
// queued -> started -> done as the client sees it), waits for the rest and
// checks every payload.
func (m *mixRunner) doJobs(ctx context.Context, mc *mixClient, o op, st *mixStats, parent int32) error {
	specs := make([]client.Job, len(o.Jobs))
	for i, j := range o.Jobs {
		specs[i] = client.Job{Spec: client.Spec{Kind: o.JobKind, Source: m.refs[j.Prog].Src}}
	}
	return m.timed(st, parent, opJobs, o.Jobs[0], func() (bool, error) {
		batch, err := mc.cl.SubmitBatch(ctx, o.Key, specs)
		if err != nil {
			return false, err
		}
		submitted := time.Now()
		var started time.Time
		err = mc.cl.Events(ctx, batch.Jobs[0].ID, 0, func(ev client.Event) error {
			switch ev.Type {
			case "started":
				started = time.Now()
			case "done", "failed":
				if !started.IsZero() {
					st.jobWait = append(st.jobWait, float64(started.Sub(submitted).Nanoseconds())/1e6)
					st.jobRun = append(st.jobRun, msSince(started))
				}
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		statuses, err := mc.cl.WaitBatch(ctx, batch)
		if err != nil {
			return false, err
		}
		if len(statuses) != len(o.Jobs) {
			return false, fmt.Errorf("batch %s: %d statuses for %d jobs", batch.ID, len(statuses), len(o.Jobs))
		}
		for i, s := range statuses {
			if s.Index < 0 || s.Index >= len(o.Jobs) {
				return false, fmt.Errorf("batch %s: job index %d of %d", batch.ID, s.Index, len(o.Jobs))
			}
			if err := m.checkJob(o.JobKind, o.Jobs[s.Index], s); err != nil {
				return false, fmt.Errorf("job %d: %w", i, err)
			}
		}
		return false, nil
	})
}

func (m *mixRunner) checkJob(kind string, j target, s *client.JobStatus) error {
	if s.State != "done" || s.Result == nil {
		return fmt.Errorf("state %s (%v)", s.State, s.Err)
	}
	r := m.refs[j.Prog]
	if kind == opProfile {
		var res client.ProfileResult
		if err := s.Result.Decode(&res); err != nil {
			return err
		}
		return checkProfile(r, j.Config, &res)
	}
	var res client.ReportResult
	if err := s.Result.Decode(&res); err != nil {
		return err
	}
	return checkDigest("report", digest(res.Report), r.Report[j.Config])
}

func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s digest %s, want %s", what, got, want)
	}
	return nil
}

// checkProfile compares a /v2/profile body with the direct facade profile
// of the same program and options.
func checkProfile(r *ref, config int, res *client.ProfileResult) error {
	if res.Steps != r.Steps {
		return fmt.Errorf("profile: %d steps, want %d", res.Steps, r.Steps)
	}
	want := r.Top[config]
	if len(res.Top) != len(want) {
		return fmt.Errorf("profile: %d findings, want %d", len(res.Top), len(want))
	}
	for i, f := range res.Top {
		w := want[i]
		if f != (client.Finding{Site: w.Site, Where: w.Where, Cost: w.Cost, Benefit: w.Benefit,
			Rate: w.Rate, ReachesConsumer: w.ReachesConsumer, Allocs: w.Allocs}) {
			return fmt.Errorf("profile: finding %d is %+v, want %+v", i, f, w)
		}
	}
	return nil
}

// fetchMetrics reads and parses the server's GET /metrics page.
func fetchMetrics(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics parses the Prometheus text exposition format into a map
// from series name (labels included, as written) to value. Comment and
// blank lines are skipped.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if len(out) == 0 {
		return nil, errors.New("metrics: empty page")
	}
	return out, nil
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// serverLayerMetrics derives the server and jobs counters of a run from
// two /metrics snapshots.
func serverLayerMetrics(before, after map[string]float64) map[string]float64 {
	d := func(name string) float64 { return after[name] - before[name] }
	return map[string]float64{
		"server.profile_hit_ratio": ratio(d("lowutil_profile_cache_hits_total"), d("lowutil_profile_cache_misses_total")),
		"server.session_hit_ratio": ratio(d("lowutil_session_cache_hits_total"),
			d("lowutil_sessions_created_total")+d("lowutil_session_cache_misses_total")),
		"server.session_evictions": d("lowutil_session_evictions_total"),
		"server.rejected":          d("lowutil_rejected_total"),
		"jobs.result_hit_ratio":    ratio(d("lowutil_job_result_hits_total"), d("lowutil_job_result_misses_total")),
		"jobs.retries":             d("lowutil_jobs_retries_total"),
		"jobs.failed":              d("lowutil_jobs_failed_total"),
	}
}

// envelopeMS estimates the HTTP/JSON envelope of a memo-hit /v2/report:
// the median client-timed call minus the median direct Profile.Report on
// the same keys, timed in this process right after the run.
func envelopeMS(calls []call, refs []*ref) float64 {
	var served, direct []float64
	for _, c := range calls {
		if c.Endpoint != opReport || !c.Hit {
			continue
		}
		served = append(served, c.MS)
		pr := refs[c.Prog].Profile[c.Config]
		t0 := time.Now()
		_ = pr.Report(lowutil.DefaultTop)
		direct = append(direct, msSince(t0))
	}
	if len(served) == 0 {
		return 0
	}
	return median(served) - median(direct)
}
