// Command smoke runs the end-to-end drills against real compassd
// processes:
//
//   - serve: one daemon's control plane (create / pause / resume /
//     checkpoint / metrics) and stream plane (live injection and
//     egress), a SIGTERM drain to checkpoint files, and a successor
//     daemon resuming one of them.
//   - cluster: a coordinator and three daemons; one session is
//     live-migrated between daemons, another's owner is SIGKILLed to
//     force heartbeat-lapse failover, and both spike traces and final
//     checkpoints must be byte-identical to solo reference runs.
//   - scenario: every registered closed-loop scenario against a daemon,
//     its telemetry on /metrics, an offline replay of one run, and a
//     re-run through a coordinator that must be bit-identical.
//
// It exits non-zero on the first failed expectation, after stopping
// every daemon it spawned. All output also goes to -log for CI
// artifact upload.
package main

import (
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"github.com/cognitive-sim/compass/internal/e2e"
	"github.com/cognitive-sim/compass/internal/server"
)

var drills = map[string]func(*e2e.Fleet){
	"serve":    serveDrill,
	"cluster":  clusterDrill,
	"scenario": scenarioDrill,
}

func main() {
	var (
		drill    = flag.String("drill", "", "drill to run: serve, cluster, or scenario (required)")
		compassd = flag.String("compassd", "", "path to the compassd binary (required)")
		workDir  = flag.String("dir", "", "working directory for addr files, checkpoints, and logs (default <drill>-smoke)")
		logPath  = flag.String("log", "", "also write output to this file (default <dir>/<drill>-smoke.log)")
	)
	flag.Parse()
	run, ok := drills[*drill]
	if !ok || *compassd == "" {
		log.Fatal("smoke: -drill serve|cluster|scenario and -compassd are required")
	}
	dir := *workDir
	if dir == "" {
		dir = *drill + "-smoke"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	lp := *logPath
	if lp == "" {
		lp = filepath.Join(dir, *drill+"-smoke.log")
	}
	lf, err := os.Create(lp)
	if err != nil {
		log.Fatal(err)
	}
	defer lf.Close()
	out := io.MultiWriter(os.Stdout, lf)
	log.SetOutput(out)
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	fleet := e2e.NewFleet(*compassd, dir, out)
	defer fleet.Teardown() // a panicking drill still stops its daemons
	run(fleet)
	fleet.Teardown()
	log.Printf("%s-smoke PASS", *drill)
}

// start spawns a compassd with loopback listeners on ephemeral ports.
func start(f *e2e.Fleet, name string, args ...string) *e2e.Proc {
	p, err := f.Start(name, append([]string{"-listen", "127.0.0.1:0", "-stream-listen", "127.0.0.1:0"}, args...)...)
	f.Check(err, "start %s", name)
	return p
}

// dial binds a control-plane client to a spawned process.
func dial(f *e2e.Fleet, p *e2e.Proc) *server.Client {
	c, err := server.Dial(p.HTTPAddr)
	f.Check(err, "dial %s", p.Name)
	return c
}

// contains fetches path as text and requires every want substring.
func contains(f *e2e.Fleet, c *server.Client, path string, want ...string) {
	var raw []byte
	f.Check(c.Do(http.MethodGet, path, nil, &raw), "GET %s", path)
	for _, w := range want {
		if !strings.Contains(string(raw), w) {
			if len(raw) > 1024 {
				raw = raw[:1024]
			}
			f.Fatalf("GET %s: response missing %q:\n%s", path, w, raw)
		}
	}
	log.Printf("GET %s ok (%d bytes, contains %q)", path, len(raw), want)
}
