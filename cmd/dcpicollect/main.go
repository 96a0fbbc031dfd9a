// Command dcpicollect is the fleet side of continuous profiling: it
// scrapes dcpid exposition endpoints (-listen) into a labeled time-series
// profile store and answers fleet-wide queries over it — which image burns
// the most cycles across the fleet, how an image's CPI moved over the last
// K epochs, and what shifted between two time windows.
//
// Usage:
//
//	dcpicollect -targets m00=http://127.0.0.1:9111,m01=... -tsdb ./fleetdb
//	dcpicollect -targets ... -tsdb ./fleetdb -once
//	dcpicollect query range -tsdb ./fleetdb -image /usr/bin/app -last 20
//	dcpicollect query top   -server http://127.0.0.1:9200 -n 10
//	dcpicollect query delta -tsdb ./fleetdb -a 1-100 -b 101-200
//	dcpicollect compact -tsdb ./fleetdb
//	dcpicollect fleet -machines 16 -epochs 200 -tsdb ./fleetdb
//
// The scrape loop runs until SIGINT/SIGTERM (graceful: the round in flight
// finishes, the store is already durable per append) or, with -once, for a
// single round. -listen serves the query API (see internal/collect).
// `fleet` runs the end-to-end demo: a simulated fleet, a scraper, the
// queries, and a ground-truth check of every answer against the
// per-machine profile databases.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcpi/internal/collect"
	"dcpi/internal/obs"
	"dcpi/internal/tsdb"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "query":
			os.Exit(queryMain(os.Args[2:]))
		case "fleet":
			os.Exit(fleetMain(os.Args[2:]))
		case "compact":
			os.Exit(compactMain(os.Args[2:]))
		}
	}
	os.Exit(serveMain(os.Args[1:]))
}

// parseTargets parses "name=url,name=url".
func parseTargets(s string) ([]collect.Target, error) {
	if s == "" {
		return nil, fmt.Errorf("no targets (want -targets name=url,name=url)")
	}
	var out []collect.Target
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad target %q (want name=url)", part)
		}
		out = append(out, collect.Target{Name: name, URL: url})
	}
	return out, nil
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("dcpicollect", flag.ExitOnError)
	var (
		targets      = fs.String("targets", "", "comma-separated name=url scrape targets")
		dbDir        = fs.String("tsdb", "fleetdb", "time-series store directory")
		interval     = fs.Duration("interval", 5*time.Second, "scrape interval")
		once         = fs.Bool("once", false, "scrape a single round and exit")
		listen       = fs.String("listen", "", "serve the query API on this address (e.g. 127.0.0.1:9200)")
		timeout      = fs.Duration("timeout", 5*time.Second, "per-request scrape timeout")
		retries      = fs.Int("retries", 2, "retries per failed request")
		backoff      = fs.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt)")
		parallel     = fs.Int("parallel", 4, "concurrent target scrapes")
		maxBytes     = fs.Int64("max-bytes", 0, "store size cap in bytes (0 = unlimited; oldest sources evicted first)")
		procs        = fs.Bool("procs", true, "ingest per-procedure breakdowns from targets that symbolize")
		compactAfter = fs.Int("compact-after", 0,
			"compact a machine's raw segments after this many accumulate (0 = never)")
	)
	fs.Parse(args)

	ts, err := parseTargets(*targets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect: %v\n", err)
		return 2
	}
	reg := obs.NewRegistry()
	store, err := tsdb.Open(*dbDir, tsdb.Options{MaxBytes: *maxBytes, Obs: obs.Hooks{Registry: reg}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect: %v\n", err)
		return 1
	}
	c := collect.New(collect.Config{
		Targets:  ts,
		Timeout:  *timeout,
		Retries:  *retries,
		Backoff:  *backoff,
		Parallel: *parallel,
		DB:       store,
		Procs:    *procs,
		Obs:      obs.Hooks{Registry: reg},
	})

	// maybeCompact runs after each scrape round when -compact-after is
	// set: merge any machine's accumulated raw segments into blocks.
	maybeCompact := func() {
		if *compactAfter <= 0 {
			return
		}
		st, err := store.Compact(tsdb.CompactOptions{CompactAfter: *compactAfter})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcpicollect: compact: %v\n", err)
			return
		}
		if st.BlocksWritten > 0 {
			fmt.Fprintf(os.Stderr, "dcpicollect: compacted %d segments into %d blocks, %d -> %d bytes\n",
				st.SegmentsCompacted, st.BlocksWritten, st.BytesBefore, st.BytesAfter)
		}
	}

	var srv *http.Server
	if *listen != "" {
		lis, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcpicollect: %v\n", err)
			return 1
		}
		srv = &http.Server{Handler: collect.APIHandler(store, c, reg)}
		go srv.Serve(lis)
		fmt.Fprintf(os.Stderr, "dcpicollect: query API on http://%s\n", lis.Addr())
	}

	onRound := func(sum collect.RoundSummary) {
		fmt.Fprintf(os.Stderr, "dcpicollect: round: %d targets, %d failed, %d epochs, %d points\n",
			sum.Targets, sum.Failed, sum.EpochsIngested, sum.PointsIngested)
		maybeCompact()
	}
	if *once {
		sum := c.ScrapeOnce(context.Background())
		onRound(sum)
		if srv != nil {
			srv.Close()
		}
		if sum.Failed > 0 {
			return 1
		}
		return 0
	}

	// Graceful shutdown: the signal cancels the scrape loop's context, the
	// round in flight finishes (every ingested segment is already fsynced),
	// and the API server drains in-flight queries.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c.Run(ctx, *interval, onRound)
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(sctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcpicollect: shutdown: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "dcpicollect: shutdown complete")
	return 0
}
