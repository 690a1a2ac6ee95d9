// Imaged is the production decode service: the band-scheduler batch
// executor behind an HTTP edge with admission control, deadline
// propagation, graceful degradation and graceful drain (see
// internal/imaged for the contract and README.md "Running imaged" for
// the status-code table).
//
//	go run ./cmd/imaged -addr :8080 &
//	curl -s --data-binary @photo.jpg 'localhost:8080/decode?scale=1/2' | jq
//	curl -s 'localhost:8080/statz' | jq
//	kill -TERM %1   # graceful drain: in-flight decodes complete
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imaged"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	platformName := flag.String("platform", "GTX 560", "machine whose committed performance model seeds the scheduler's calibrator (see hetjpeg.Platforms)")
	workers := flag.Int("workers", 0, "decode workers (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "band scheduler in-flight image cap (0 = workers+2)")
	salvage := flag.Bool("salvage", false, "serve corrupt-but-recoverable uploads as 200 + X-Hetjpeg-Salvaged")
	maxBody := flag.Int64("max-body", defaultMaxBody, "per-request body cap in bytes (413 past it)")
	maxQueue := flag.Int("max-queue", 0, "admission cap on concurrently admitted requests (0 = 4×workers); 429 past it")
	maxQueueBytes := flag.Int64("max-queue-bytes", 256<<20, "admission byte budget across admitted bodies; 429 past it")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "decoded-output cache budget in bytes (negative disables caching)")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "default per-request decode deadline")
	maxTimeout := flag.Duration("max-timeout", time.Minute, "upper bound on the per-request ?timeout= override")
	degradeWatermark := flag.Float64("degrade-watermark", 0.5, "queue-occupancy fraction past which ?degrade=allow requests decode at 1/8 scale")
	overloadAfter := flag.Duration("overload-after", 5*time.Second, "continuous shedding for this long flips /readyz not-ready")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	flag.Parse()

	if err := run(*addr, *platformName, imaged.Config{
		Workers:          *workers,
		MaxInFlight:      *maxInflight,
		Salvage:          *salvage,
		MaxBody:          *maxBody,
		MaxQueue:         *maxQueue,
		MaxQueueBytes:    *maxQueueBytes,
		CacheBytes:       *cacheBytes,
		RequestTimeout:   *requestTimeout,
		MaxTimeout:       *maxTimeout,
		DegradeWatermark: *degradeWatermark,
		OverloadAfter:    *overloadAfter,
	}, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

func run(addr, platformName string, cfg imaged.Config, drainTimeout time.Duration) error {
	spec := hetjpeg.PlatformByName(platformName)
	if spec == nil {
		return fmt.Errorf("unknown platform %q (see hetjpeg.Platforms)", platformName)
	}
	model, err := hetjpeg.DefaultModel(spec)
	if err != nil {
		return err
	}
	cfg.Model = model
	s, err := imaged.New(cfg)
	if err != nil {
		return err
	}

	srv := newHTTPServer(addr, s.Handler(), cfg.MaxBody)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("imaged: serving on %s (%s model)", addr, spec.Name)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		// Graceful drain: stop admitting (readyz goes not-ready so the
		// balancer stops routing), let every admitted request finish,
		// then drain the decode pipeline.
		log.Printf("imaged: %v, draining (up to %v)", sig, drainTimeout)
		s.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("imaged: shutdown: %v", err)
		}
		s.Close()
		log.Printf("imaged: drained, exiting")
		return nil
	}
}

// Connection limits, fixed rather than flags. A client that trickles
// its request headers or body, or parks an idle keep-alive connection,
// is cut off instead of holding a goroutine for free.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	// minBodyRate is the slowest upload, in bytes per second, that still
	// gets a body of the full -max-body size in before ReadTimeout.
	minBodyRate = 1 << 20
	// defaultMaxBody is -max-body's default, which is also what the
	// service applies when the flag is not positive.
	defaultMaxBody = 64 << 20
)

// newHTTPServer builds the listener-side server with the connection
// limits above; maxBody sizes the whole-request read timeout.
func newHTTPServer(addr string, h http.Handler, maxBody int64) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout(maxBody),
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// readTimeout bounds the read of one whole request: the header
// allowance plus a maxBody body at minBodyRate (74 s at the 64 MiB
// default).
func readTimeout(maxBody int64) time.Duration {
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	return readHeaderTimeout + time.Duration(float64(maxBody)/minBodyRate*float64(time.Second))
}
