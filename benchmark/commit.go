package main

import (
	"fmt"
	"time"

	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// txnClient is one closed-loop update client: it loops
// Begin → Insert(new key) → UpdateKey(seeded-uniform existing key) → Commit
// over one table and keeps the generator's model of that table.
type txnClient struct {
	cl    *cluster
	desc  *tuple.Desc
	table int32
	rows  int64 // updates draw uniformly from the preloaded keys [0, rows)
	fresh int64 // next never-used key
	ops   int64 // operation counter; doubles as the row version written
	r     *rng
	model *tableModel
	tr    *clientTrace

	lat       durations     // Begin → Commit's return, one per committed transaction of the window
	commitLat durations     // the Commit call alone, likewise
	window    time.Duration // the timed window itself
	attempted int64
	failed    int64
}

func newTxnClient(cl *cluster, desc *tuple.Desc, table int32, rows int64, e *env, stream int) *txnClient {
	return &txnClient{cl: cl, desc: desc, table: table, rows: rows, fresh: rows,
		r: newRng(e.seed, stream), model: newTableModel(rows), tr: e.tr.client()}
}

// one runs a single transaction and, when record is set, records its
// latency from Begin to Commit's return and that of the Commit call.
func (c *txnClient) one(record bool) {
	c.ops++
	key, fresh, ver := c.r.intn(c.rows), c.fresh, c.ops
	c.fresh++
	ins, upd := makeRow(c.desc, fresh, ver), makeRow(c.desc, key, ver)

	var err error
	var commitTook time.Duration
	took := timed(func() {
		root := c.tr.begin("txn", -1, c.ops)
		tx := c.cl.coord.Begin()
		s := c.tr.begin("coord.write", root, c.ops)
		err = tx.Insert(c.table, ins)
		c.tr.end(s)
		if err == nil {
			s = c.tr.begin("coord.write", root, c.ops)
			err = tx.UpdateKey(c.table, key, upd)
			c.tr.end(s)
		}
		if err == nil {
			s = c.tr.begin("coord.commit", root, c.ops)
			commitTook = timed(func() { _, err = tx.Commit() })
			c.tr.end(s)
		} else {
			_ = tx.Abort() // the failure is already counted; Abort only releases
		}
		c.tr.end(root)
	})

	if record {
		c.attempted++
	}
	if err != nil {
		// A failed operation contributes no latency sample: it counts as
		// missing any latency figure.
		if record {
			c.failed++
		}
		return
	}
	if record {
		c.lat = append(c.lat, took)
		c.commitLat = append(c.commitLat, commitTook)
	}
	c.model.insert(fresh, ver)
	c.model.update(key, ver)
}

func (c *txnClient) loop(d time.Duration) {
	c.window = timed(func() {
		for deadline := time.Now().Add(d); time.Now().Before(deadline); {
			c.one(true)
		}
	})
}

// commitWorkload is commit-logless and commit-logged: two clients, each on
// a replicated table of its own so that conflicts never arise (§6.3).
type commitWorkload struct {
	logged  bool
	e       *env
	cl      *cluster
	desc    *tuple.Desc
	clients []*txnClient
}

// commitConfig returns the deployment of the commit workloads. The logged
// side's flush policy is stated here and is the same on every commit: real
// fsync plus a 2 ms simulated device latency, group commit on.
func commitConfig(logged bool, e *env) clusterConfig {
	cfg := clusterConfig{workers: 2, protocol: txn.OptThreePC, mode: worker.HARBOR,
		poolFrames: e.sc.commitPool, dir: e.dir}
	if logged {
		cfg.protocol, cfg.mode = txn.TwoPC, worker.ARIES
		cfg.groupCommit, cfg.syncDelay = true, 2*time.Millisecond
	}
	return cfg
}

func (w *commitWorkload) setup(e *env) error {
	w.e, w.desc = e, benchDesc()
	cl, err := newCluster(commitConfig(w.logged, e))
	if err != nil {
		return err
	}
	w.cl = cl
	both := map[int]expr.KeyRange{0: expr.FullKeyRange(), 1: expr.FullKeyRange()}
	for c := 0; c < maxClients; c++ {
		table := int32(c + 1)
		if err := cl.createTable(table, w.desc, 64, both); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := cl.bulkLoad(i, table, w.desc, 0, e.sc.commitRows); err != nil {
				return err
			}
		}
		w.clients = append(w.clients, newTxnClient(cl, w.desc, table, e.sc.commitRows, e, c))
	}
	if err := cl.sealLoad(); err != nil {
		return err
	}
	return w.warm()
}

// warm runs untimed transactions so pools, connection pools and lazily
// built state are in place before the window opens.
func (w *commitWorkload) warm() error {
	n := w.e.sc.warmTxns
	if w.logged {
		n /= 5 // each costs several forced writes
	}
	for _, c := range w.clients {
		for i := 0; i < n; i++ {
			c.one(false)
		}
		if c.model.count.Load() != c.rows+int64(n) {
			return fmt.Errorf("%s: warm-up transactions failed on table %d", w.name(), c.table)
		}
	}
	return nil
}

func (w *commitWorkload) name() string {
	if w.logged {
		return "commit-logged"
	}
	return "commit-logless"
}

func (w *commitWorkload) run(d time.Duration, reg *registryWindow) {
	defer reg.open(w.cl)()
	fns := make([]func(), len(w.clients))
	for i, c := range w.clients {
		fns[i] = func() { c.loop(d) }
	}
	runClients(fns...)
}

func (w *commitWorkload) baselines() error { return nil }

func (w *commitWorkload) verify() (int, error) {
	for _, c := range w.clients {
		if err := checkReplicas(w.cl, c.table, w.desc, []int{0, 1}, c.model.count.Load(), c.model.sumF0); err != nil {
			return 0, err
		}
	}
	return len(w.clients), nil
}

func (w *commitWorkload) counts() (attempted, failed int64, checks int) {
	for _, c := range w.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed, 0
}

// commitStats pools the clients' samples: tps is the sum of each client's
// own rate over its own window; lat is Begin → Commit's return and
// commitLat the Commit call alone, both in µs.
func commitStats(clients []*txnClient) (tps float64, lat, commitLat samples) {
	var all, calls durations
	for _, c := range clients {
		tps += ratio(float64(len(c.lat)), c.window.Seconds())
		all, calls = append(all, c.lat...), append(calls, c.commitLat...)
	}
	return tps, all.in(time.Microsecond), calls.in(time.Microsecond)
}

// headline: the bulk work is committed transactions and the
// latency-critical operation the whole transaction. The second rate is the
// commit protocol's by itself (the quantity of the paper's Fig. 6-2):
// Commit calls a client completes per second spent inside Commit, at the
// median call.
func (w *commitWorkload) headline() headline {
	tps, lat, commitLat := commitStats(w.clients)
	return headline{tps, ratio(1e6, commitLat.quantile(0.5)), lat.quantile(0.5), lat.quantile(tailQ)}
}

func (w *commitWorkload) endToEnd(r *report) {
	tps, lat, _ := commitStats(w.clients)
	r.add("commit_tps", "1/s", tps, len(lat))
	r.latency("commit", "us", lat, 0.99)
}

func (w *commitWorkload) layers(r *report, reg *registryWindow, spans map[string]spanTotals) {
	commitLayers(r, spans)
}

func (w *commitWorkload) cluster() *cluster { return w.cl }

func (w *commitWorkload) liveRows() (n int64) {
	for _, c := range w.clients {
		n += 2 * c.model.count.Load()
	}
	return n
}
