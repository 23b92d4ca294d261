// Command chaosproxy fronts one pipeschedd daemon with a fault-injecting
// reverse proxy driven by a seeded schedule (internal/faultinject).
// Advertise the proxy's URL in a fleet's peers file and every
// peer-to-peer exchange with that node — forwards, hedges, digest and
// entry pulls — crosses the fault schedule, while clients and health checks
// can still reach the daemon directly on its own port. That split is
// what lets scripts/cluster_e2e.sh inject latency, drops, flapping and
// 5xx bursts into the fleet's internal traffic and still assert that
// client-visible responses stay byte-identical to a clean reference.
//
// Injected failures are always marked: synthesized responses and
// injected-drop 502s carry the X-Fault-Injected header, so a harness can
// tell scheduled faults from real ones.
//
// Example:
//
//	chaosproxy -listen 127.0.0.1:7102 -target http://127.0.0.1:7002 \
//	    -schedule chaos.json
//
// Exit codes follow the shared contract: 2 on misuse, 1 on runtime
// failure. The proxy serves until SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"pipesched/internal/cli"
	"pipesched/internal/faultinject"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable streams and exit code, for tests.
func realMain(args []string, out, errOut io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return cli.ExitCode("chaosproxy", run(ctx, args, out, errOut), errOut)
}

func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("chaosproxy", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "address the chaos proxy listens on")
		target   = fs.String("target", "", "base URL of the daemon to front (required)")
		schedule = fs.String("schedule", "", "fault schedule JSON file (empty = pass everything through)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *target == "" {
		return cli.Usagef("-target is required")
	}
	sched := &faultinject.Schedule{}
	if *schedule != "" {
		var err error
		if sched, err = faultinject.LoadSchedule(*schedule); err != nil {
			return cli.Usagef("%v", err)
		}
	}
	proxy, err := faultinject.NewProxy(*target, sched)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// Printed first so wrappers can scrape the resolved port, matching
	// the pipeschedd convention.
	fmt.Fprintf(out, "chaosproxy: listening on %s -> %s\n", ln.Addr(), *target)
	srv := &http.Server{Handler: proxy}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		srv.Close()
		<-done
		st := proxy.Stats()
		fmt.Fprintf(out, "chaosproxy: %d requests (%d passed, %d delayed, %d dropped, %d statuses)\n",
			st.Requests, st.Passed, st.Delayed, st.Dropped, st.Statuses)
		return nil
	case err := <-done:
		return err
	}
}
