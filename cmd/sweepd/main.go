// Command sweepd is the sweep-as-a-service farm daemon and its
// satellite roles. One binary, three modes:
//
//	sweepd -listen :8080 -data-dir /var/lib/sweepd -token $T
//	    serve: accept matrix jobs over HTTP, run them on a local pool,
//	    stream progress, serve results, and share a content-addressed
//	    result cache across jobs (size-capped via -cache-max-bytes).
//	    With -data-dir, specs and completed replicas persist through a
//	    checksummed journal: a restarted — even kill -9'd — server
//	    reloads its jobs and resumes them byte-identically. With
//	    -token, mutating endpoints require the bearer token, and
//	    -max-jobs-per-user bounds each principal's unfinished jobs.
//	    SIGINT/SIGTERM drains gracefully: admission stops, running and
//	    queued jobs finish, then the process exits.
//
//	sweepd -worker http://farm:8080 -token $T
//	    worker: join a farm, claim replica ranges over the same HTTP
//	    API, simulate them on a reusable arena, post results back, and
//	    heartbeat in-flight claims so leases only cull dead workers.
//	    Transient farm failures — a server restart, a 5xx, throttling —
//	    are retried with jittered exponential backoff (-retries,
//	    -retry-base) instead of shedding the worker.
//
//	sweepd -local -matrix m.json
//	    local: run the same JSON matrix in-process and print emitter
//	    output to stdout — the reference the served bytes must equal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"patch"
	"patch/service"
)

// serveConfig carries the serve-mode flags.
type serveConfig struct {
	listen        string
	cacheDir      string
	cacheMaxBytes int64
	dataDir       string
	token         string
	maxJobs       int
	maxJobsUser   int
	workers       int
	lease         time.Duration
	drainTimeout  time.Duration
}

func main() {
	var sc serveConfig
	flag.StringVar(&sc.listen, "listen", ":8080", "serve mode: listen address")
	flag.StringVar(&sc.cacheDir, "cache", "", "serve mode: on-disk result cache directory (empty: <data-dir>/cache, or memory only without -data-dir)")
	flag.Int64Var(&sc.cacheMaxBytes, "cache-max-bytes", 0, "serve mode: disk result-cache size cap; oldest-accessed entries evicted (0: unbounded)")
	flag.StringVar(&sc.dataDir, "data-dir", "", "serve mode: durable job store directory — specs and completed replicas survive a restart (empty: jobs are forgotten on restart)")
	flag.IntVar(&sc.maxJobs, "max-jobs", 2, "serve mode: concurrently running jobs; excess queue per principal, admitted round-robin")
	flag.IntVar(&sc.maxJobsUser, "max-jobs-per-user", 0, "serve mode: unfinished jobs allowed per principal (0: unlimited)")
	flag.IntVar(&sc.workers, "workers", 0, "serve/local mode: local pool size (0: GOMAXPROCS)")
	flag.DurationVar(&sc.lease, "lease", 2*time.Minute, "serve mode: remote claim lease; workers heartbeat inside it, so this only bounds how long a dead worker's claims stay stuck")
	flag.DurationVar(&sc.drainTimeout, "drain-timeout", time.Minute, "serve mode: how long to let jobs finish on SIGTERM before cancelling")
	token := flag.String("token", "", "serve mode: require this bearer token on submit/claim/results; worker mode: send it")

	workerURL := flag.String("worker", "", "worker mode: farm base URL to join (e.g. http://host:8080)")
	batch := flag.Int("batch", 4, "worker mode: replicas claimed per round trip")
	oneShot := flag.Bool("one-shot", false, "worker mode: exit at the first empty claim instead of polling")
	retries := flag.Int("retries", 0, "worker mode: attempts per server call under transient failure before exiting (0: default of 6)")
	retryBase := flag.Duration("retry-base", 0, "worker mode: backoff before the first retry, doubling with jitter (0: default of 250ms)")

	local := flag.Bool("local", false, "local mode: run -matrix in-process and print to stdout")
	matrixFile := flag.String("matrix", "", "local mode: matrix JSON file (\"-\": stdin)")
	format := flag.String("format", "csv", "local mode: output format: "+strings.Join(service.Formats(), ", "))
	flag.Parse()
	sc.token = *token

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *local:
		err = runLocal(ctx, *matrixFile, *format, sc.workers)
	case *workerURL != "":
		err = runWorkerMode(ctx, *workerURL, *token, *batch, *oneShot, *retries, *retryBase)
	default:
		err = serve(ctx, sc)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func serve(ctx context.Context, sc serveConfig) error {
	cacheDir := sc.cacheDir
	if cacheDir == "" && sc.dataDir != "" {
		cacheDir = filepath.Join(sc.dataDir, "cache")
	}
	cache, err := service.NewResultCache(cacheDir, service.MaxDiskBytes(sc.cacheMaxBytes))
	if err != nil {
		return err
	}
	var store *service.JobStore
	if sc.dataDir != "" {
		if store, err = service.OpenJobStore(sc.dataDir); err != nil {
			return err
		}
	}
	srv := service.New(service.Config{
		MaxJobs:        sc.maxJobs,
		MaxJobsPerUser: sc.maxJobsUser,
		Workers:        sc.workers,
		Cache:          cache,
		Lease:          sc.lease,
		Store:          store,
		Token:          sc.token,
	})
	if restored, err := srv.Restore(); err != nil {
		return err
	} else if restored > 0 {
		log.Printf("sweepd: restored %d persisted jobs from %s", restored, sc.dataDir)
	}
	hs := newHTTPServer(sc.listen, srv)

	errc := make(chan error, 1)
	go func() {
		log.Printf("sweepd: serving on %s (cache: %s, jobs: %s)",
			sc.listen, cacheOrMem(cacheDir), cacheOrMem(sc.dataDir))
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("sweepd: draining (up to %s)...", sc.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), sc.drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("sweepd: drain incomplete, jobs cancelled: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	return hs.Shutdown(sctx)
}

// Connection timeouts for the serve mode's listener. A client must
// finish its request headers within readHeaderTimeout and an idle
// keep-alive connection is closed after idleTimeout, so a slow or
// silent client cannot pin connections. Bodies and responses are not
// timed: result posts can be large, and NDJSON progress streams and
// result downloads are long-lived.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func cacheOrMem(dir string) string {
	if dir == "" {
		return "memory only"
	}
	return dir
}

func runWorkerMode(ctx context.Context, base, token string, batch int, oneShot bool, retries int, retryBase time.Duration) error {
	client := &service.Client{Base: base, Token: token}
	return service.RunWorker(ctx, client, service.WorkerConfig{
		Batch:     batch,
		OneShot:   oneShot,
		Retries:   retries,
		RetryBase: retryBase,
		Log:       log.Printf,
	})
}

func runLocal(ctx context.Context, matrixFile, format string, workers int) error {
	if matrixFile == "" {
		return errors.New("-local needs -matrix FILE (\"-\" for stdin)")
	}
	var rd io.Reader = os.Stdin
	if matrixFile != "-" {
		f, err := os.Open(matrixFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rd = f
	}
	var m patch.Matrix
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("bad matrix: %w", err)
	}
	e, err := service.NewEmitter(format, os.Stdout)
	if err != nil {
		return err
	}
	_, err = patch.Sweep(ctx, m, patch.Workers(workers), patch.EmitTo(e))
	return err
}
