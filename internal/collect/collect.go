// Package collect is the fleet scraper: it pulls epoch-stamped profile
// payloads from a static set of dcpid exposition endpoints (internal/expo)
// on an interval and appends them to a labeled time-series store
// (internal/tsdb). The design follows the conprof/Prometheus pull model:
// targets are dumb and stateless, the collector owns scheduling, retry,
// and storage, and a machine that disappears simply goes stale rather
// than blocking the fleet.
//
// Each (target, epoch) pair is ingested exactly once: the exposition
// marks an epoch sealed when its metadata hits the disk (profiledb's
// write-meta-last protocol), the collector only ingests sealed epochs,
// and sealed epochs never change again.
package collect

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dcpi/internal/expo"
	"dcpi/internal/obs"
	"dcpi/internal/par"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// Target is one scrape endpoint. Name becomes the machine label on every
// point ingested from it (collector-assigned, like a Prometheus instance
// label, so a misconfigured target cannot impersonate another machine).
type Target struct {
	Name string
	URL  string // base URL, e.g. http://127.0.0.1:9111
}

// Config configures a Collector.
type Config struct {
	Targets []Target
	// Timeout bounds each HTTP request (default 5s).
	Timeout time.Duration
	// Retries is how many times a failed request is retried (default 2).
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 100ms).
	Backoff time.Duration
	// Parallel bounds concurrent target scrapes per round (default 4).
	Parallel int
	// DB receives every ingested point.
	DB *tsdb.DB
	// Procs asks targets for per-procedure breakdowns (?procs=1) and
	// ingests them as procedure-labeled points alongside the image-level
	// totals. Targets that cannot symbolize simply omit the breakdown.
	Procs bool
	// Obs publishes scrape metrics (collect.*) when set.
	Obs obs.Hooks
	// Client overrides the HTTP client (tests); Timeout still applies
	// per-request via context.
	Client *http.Client
}

// TargetStatus is the live state of one target.
type TargetStatus struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	LastEpoch   uint64 `json:"last_epoch"`
	Scrapes     uint64 `json:"scrapes"`
	Failures    uint64 `json:"failures"`
	StaleRounds int    `json:"stale_rounds"` // rounds since the last success
	LastError   string `json:"last_error,omitempty"`
}

// RoundSummary describes one scrape pass over all targets.
type RoundSummary struct {
	Targets        int
	Failed         int
	EpochsIngested int
	PointsIngested int
}

// Collector scrapes targets into the store.
type Collector struct {
	cfg    Config
	client *http.Client

	mu     sync.Mutex
	status map[string]*TargetStatus
	rounds uint64
}

// New builds a collector; Config.DB is required.
func New(cfg Config) *Collector {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 4
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Collector{cfg: cfg, client: client, status: map[string]*TargetStatus{}}
	for _, t := range cfg.Targets {
		st := &TargetStatus{Name: t.Name, URL: t.URL}
		// Resume from what the store already holds, so a restarted
		// collector (or a second -once invocation) never re-ingests an
		// epoch a previous process stored — exactly-once survives the
		// process boundary, not just the Collector's lifetime.
		if cfg.DB != nil {
			st.LastEpoch = cfg.DB.MaxEpoch(t.Name)
		}
		c.status[t.Name] = st
	}
	return c
}

// Statuses returns a snapshot of every target's state, sorted by name.
func (c *Collector) Statuses() []TargetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TargetStatus, 0, len(c.status))
	for _, s := range c.status {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// maxBodyBytes caps how much of a target's response is read. A target is
// another machine: the JSON decoder buffers a value whole, so an endless
// body would otherwise be held in memory until the request timed out. Real
// /profiles payloads are tens of kilobytes.
const maxBodyBytes = 16 << 20

// get fetches url into v (JSON), retrying with exponential backoff. Every
// attempt gets its own timeout; retries stop when ctx is cancelled.
func (c *Collector) get(ctx context.Context, url string, v any) error {
	reg := c.cfg.Obs.Registry
	backoff := c.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			reg.Counter("collect.http_retries").Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
		err := func() error {
			req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
			if err != nil {
				return err
			}
			resp, err := c.client.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
			}
			body := &io.LimitedReader{R: resp.Body, N: maxBodyBytes}
			if err := json.NewDecoder(body).Decode(v); err != nil {
				if body.N <= 0 {
					return fmt.Errorf("%s: response exceeds %d bytes", url, maxBodyBytes)
				}
				return err
			}
			return nil
		}()
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

// scrapeTarget ingests every sealed epoch the target has that the store
// does not, returning (epochs, points) ingested. It lists only the epochs
// above its high-water mark (/epochs?after=N), so a steady-state scrape
// costs the target what is new, not what it holds. The listing is still
// filtered here: a target is untrusted, and an old dcpid ignores after.
func (c *Collector) scrapeTarget(ctx context.Context, t Target) (int, int, error) {
	c.mu.Lock()
	last := c.status[t.Name].LastEpoch
	c.mu.Unlock()
	var epochs expo.EpochsPayload
	if err := c.get(ctx, fmt.Sprintf("%s/epochs?after=%d", t.URL, last), &epochs); err != nil {
		return 0, 0, err
	}
	c.cfg.Obs.Registry.Counter("collect.epochs_listed").Add(uint64(len(epochs.Epochs)))

	var nEpochs, nPoints int
	for _, e := range epochs.Epochs {
		if !e.Sealed || e.Epoch < 1 || uint64(e.Epoch) <= last {
			continue
		}
		url := fmt.Sprintf("%s/profiles?epoch=%d", t.URL, e.Epoch)
		if c.cfg.Procs {
			url += "&procs=1"
		}
		var pp expo.ProfilesPayload
		if err := c.get(ctx, url, &pp); err != nil {
			return nEpochs, nPoints, err
		}
		// The payload must be the sealed epoch that was asked for: anything
		// else would land under the wrong epoch (or change after ingestion)
		// while LastEpoch moved past the one requested.
		if pp.Epoch != e.Epoch || !pp.Sealed {
			return nEpochs, nPoints, fmt.Errorf("epoch %d: target answered with epoch %d, sealed=%v",
				e.Epoch, pp.Epoch, pp.Sealed)
		}
		batch := tsdb.Batch{
			Machine:  t.Name,
			Workload: pp.Workload,
			Epoch:    uint64(e.Epoch),
		}
		if pp.Meta != nil {
			batch.Wall = pp.Meta.WallCycles
			batch.Period = pp.Meta.CyclesPeriod
		}
		for _, rec := range pp.Profiles {
			ev, err := sim.ParseEvent(rec.Event)
			if err != nil {
				return nEpochs, nPoints, fmt.Errorf("epoch %d: %w", e.Epoch, err)
			}
			batch.Records = append(batch.Records, tsdb.Record{
				Image:   rec.Image,
				Event:   ev,
				Samples: rec.Samples,
				Insts:   rec.Insts,
			})
			// Per-procedure breakdown rows ride in the same batch with a
			// Proc label; queries keep the two levels apart (see
			// tsdb.Matcher), so they never double-count the image total.
			for _, ps := range rec.Procs {
				batch.Records = append(batch.Records, tsdb.Record{
					Image:   rec.Image,
					Proc:    ps.Proc,
					Event:   ev,
					Samples: ps.Samples,
				})
			}
		}
		if err := c.cfg.DB.Append(batch); err != nil {
			return nEpochs, nPoints, err
		}
		nEpochs++
		nPoints += len(batch.Records)
		last = uint64(e.Epoch)
		c.mu.Lock()
		c.status[t.Name].LastEpoch = last
		c.mu.Unlock()
	}
	return nEpochs, nPoints, nil
}

// ScrapeOnce runs one pass over every target (bounded fan-out) and
// returns the round's summary.
func (c *Collector) ScrapeOnce(ctx context.Context) RoundSummary {
	reg := c.cfg.Obs.Registry
	type result struct {
		target  Target
		epochs  int
		points  int
		elapsed time.Duration
		err     error
	}
	// Scrapes wait on the network, not the host's CPUs, so they keep their
	// own bound rather than borrowing from the worker budget.
	results := make([]result, len(c.cfg.Targets))
	par.Do(c.cfg.Parallel, len(c.cfg.Targets), func(i int) {
		t := c.cfg.Targets[i]
		start := time.Now()
		ne, np, err := c.scrapeTarget(ctx, t)
		results[i] = result{target: t, epochs: ne, points: np, elapsed: time.Since(start), err: err}
	})

	sum := RoundSummary{Targets: len(c.cfg.Targets)}
	c.mu.Lock()
	c.rounds++
	for _, r := range results {
		st := c.status[r.target.Name]
		st.Scrapes++
		reg.Counter("collect.scrapes").Inc()
		reg.Histogram("collect.scrape_latency_ms", obs.ExpBuckets(0.5, 2, 14)).
			Observe(float64(r.elapsed) / float64(time.Millisecond))
		if r.err != nil {
			st.Failures++
			st.StaleRounds++
			st.LastError = r.err.Error()
			sum.Failed++
			reg.Counter("collect.scrape_failures").Inc()
		} else {
			st.StaleRounds = 0
			st.LastError = ""
		}
		sum.EpochsIngested += r.epochs
		sum.PointsIngested += r.points
	}
	var stale, maxStale int
	for _, st := range c.status {
		if st.StaleRounds > 0 {
			stale++
		}
		if st.StaleRounds > maxStale {
			maxStale = st.StaleRounds
		}
	}
	c.mu.Unlock()
	reg.Counter("collect.epochs_ingested").Add(uint64(sum.EpochsIngested))
	reg.Counter("collect.points_ingested").Add(uint64(sum.PointsIngested))
	reg.Gauge("collect.stale_targets").Set(float64(stale))
	reg.Gauge("collect.max_stale_rounds").Set(float64(maxStale))
	return sum
}

// Run scrapes on the interval until ctx is cancelled. The first pass runs
// immediately. onRound, when non-nil, observes each round's summary.
func (c *Collector) Run(ctx context.Context, interval time.Duration, onRound func(RoundSummary)) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		sum := c.ScrapeOnce(ctx)
		if onRound != nil {
			onRound(sum)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
