// Command harbor-worker runs one worker site as a standalone process.
//
//	harbor-worker -site 1 -dir /var/lib/harbor/site1 -addr :7101 \
//	    -sites "0=coord:7100,1=w1:7101,2=w2:7102" \
//	    -protocol opt3pc -mode harbor
//
// The -sites list names every site in the cluster (site 0 is the
// coordinator) so the worker can reach the coordinator's recovery server
// and its peers for the consensus building protocol. With -recover the
// worker runs crash recovery before serving (ARIES restart in aries mode;
// HARBOR recovery needs the catalog's replica layout, which the library
// API provides — see examples/failover).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/obs"
	"harbor/internal/txn"
	"harbor/internal/worker"

	"harbor/internal/core"
)

func main() {
	site := flag.Int("site", 1, "site id (>= 1)")
	dir := flag.String("dir", "", "data directory (required)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	sites := flag.String("sites", "", "cluster layout: id=host:port,...")
	protocol := flag.String("protocol", "opt3pc", "commit protocol: 2pc|opt2pc|3pc|opt3pc")
	mode := flag.String("mode", "harbor", "recovery mode: harbor|aries")
	checkpoint := flag.Duration("checkpoint", time.Second, "checkpoint interval (0 disables)")
	groupCommit := flag.Bool("group-commit", true, "enable group commit")
	doRecover := flag.Bool("recover", false, "run ARIES restart recovery before serving (aries mode)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/harbor metrics+traces and pprof on this address (empty disables)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "harbor-worker: -dir is required")
		os.Exit(2)
	}
	p, m, err := parseProtoMode(*protocol, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harbor-worker:", err)
		os.Exit(2)
	}
	cat := catalog.New(0)
	if err := parseSites(cat, *sites); err != nil {
		fmt.Fprintln(os.Stderr, "harbor-worker:", err)
		os.Exit(2)
	}
	// core.OpenSite arms online torn-page repair: a read tripping a CRC
	// failure kicks off a background repair-from-buddy instead of leaving
	// the page dead.
	w, err := core.OpenSite(worker.Config{
		Site:            catalog.SiteID(*site),
		Dir:             *dir,
		Addr:            *addr,
		Protocol:        p,
		Mode:            m,
		CheckpointEvery: *checkpoint,
		GroupCommit:     *groupCommit,
		Catalog:         cat,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "harbor-worker:", err)
		os.Exit(1)
	}
	fmt.Printf("harbor-worker: site %d serving on %s (protocol %s, mode %s)\n",
		*site, w.Addr(), p, m)
	if *debugAddr != "" {
		if err := serveDebug(*debugAddr, obs.DebugMux(w.Obs(), w.Trace())); err != nil {
			fmt.Fprintln(os.Stderr, "harbor-worker:", err)
			os.Exit(1)
		}
	}
	if *doRecover && m == worker.ARIES {
		stats, err := w.RecoverARIES()
		if err != nil {
			fmt.Fprintln(os.Stderr, "harbor-worker: recovery failed:", err)
			os.Exit(1)
		}
		fmt.Printf("harbor-worker: ARIES restart done in %v (redo %d, undo %d, in-doubt %d)\n",
			stats.Total, stats.RedoApplied, stats.UndoApplied, stats.InDoubt)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("harbor-worker: shutting down")
	_ = w.Close()
}

func parseProtoMode(protocol, mode string) (txn.Protocol, worker.RecoveryMode, error) {
	var p txn.Protocol
	switch strings.ToLower(protocol) {
	case "2pc":
		p = txn.TwoPC
	case "opt2pc":
		p = txn.OptTwoPC
	case "3pc":
		p = txn.ThreePC
	case "opt3pc":
		p = txn.OptThreePC
	default:
		return 0, 0, fmt.Errorf("unknown protocol %q", protocol)
	}
	var m worker.RecoveryMode
	switch strings.ToLower(mode) {
	case "harbor":
		m = worker.HARBOR
	case "aries":
		m = worker.ARIES
	default:
		return 0, 0, fmt.Errorf("unknown mode %q", mode)
	}
	return p, m, nil
}

func parseSites(cat *catalog.Catalog, spec string) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -sites entry %q", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return fmt.Errorf("bad site id %q", kv[0])
		}
		cat.AddSite(catalog.SiteID(id), kv[1])
	}
	return nil
}

// serveDebug starts the observability endpoint, printing the bound address
// so callers using :0 can find it.
func serveDebug(addr string, mux *http.ServeMux) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	fmt.Printf("debug: /debug/harbor on http://%s/debug/harbor\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
	return nil
}
