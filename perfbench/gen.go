package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/workload"
)

// Request kinds.
const (
	kindSQL    = "sql"    // SQL text over the built-in MusicBrainz schema
	kindJSON   = "json"   // structured wire query with exact statistics
	kindUpdate = "update" // POST /v1/catalog/stats
)

// Mix classes of a request, as the workloads define them.
const (
	classRepeat = "repeat" // exact text repeat of a pool statement
	classTwin   = "twin"   // alias- and FROM-order-renamed pool statement
	classCold   = "cold"   // never-seen statement
	classWindow = "window" // sliding window over the drift universe
	classUpdate = "update" // catalog statistics write
)

// request is one generated request. Everything the oracle needs to check
// the answer travels with it.
type request struct {
	kind  string
	class string
	label string // shape-size, e.g. "musicbrainz-16"
	body  []byte
	rels  int
	// q is the generated query of a JSON request (exact statistics).
	q *cost.Query
	// st is the generated join graph of a SQL request; baseBody is the
	// text of the pool statement a twin renames.
	st       *stmt
	baseBody []byte
	// upd is the statistics write of an update request.
	upd *httpapi.CatalogRelStats
}

// mbSchema is the MusicBrainz foreign-key graph the SQL generator walks.
type mbSchema struct {
	names []string
	rows  []float64
	adj   [][]int
	refs  map[[2]int]bool // (referencing, referenced) foreign keys
	comp  []int           // largest connected component, in index order
}

func newMBSchema() *mbSchema {
	mb := catalog.MusicBrainz()
	n := mb.Catalog.Len()
	s := &mbSchema{names: make([]string, n), rows: make([]float64, n), adj: make([][]int, n), refs: map[[2]int]bool{}}
	for i, r := range mb.Catalog.Rels {
		s.names[i] = r.Name
		s.rows[i] = r.Rows
	}
	uf := graph.NewUnionFind(n)
	for _, fk := range mb.FKs {
		s.adj[fk.From] = append(s.adj[fk.From], fk.To)
		s.adj[fk.To] = append(s.adj[fk.To], fk.From)
		s.refs[[2]int{fk.From, fk.To}] = true
		uf.Union(fk.From, fk.To)
	}
	for _, members := range uf.Groups() {
		if len(members) > len(s.comp) {
			s.comp = members
		}
	}
	sort.Ints(s.comp)
	return s
}

// stmt is a generated join over MusicBrainz tables: the generator's own
// join graph, which the SQL renderer turns into text.
type stmt struct {
	tables []int     // global table index of local relation i
	edges  [][2]int  // local (referencing, referenced) pairs
	preds  []predGen // constant predicates (cold variants)
}

// predGen is one constant predicate: rel gets "= lit" (eq) or "> lit".
type predGen struct {
	rel int
	eq  bool
	lit int
}

// walk collects n distinct tables by a random walk over the foreign-key
// graph, starting inside its largest component (the paper's §7.2.2
// generator).
func (s *mbSchema) walk(n int, rng *rand.Rand) []int {
	if n > len(s.comp) {
		n = len(s.comp)
	}
	cur := s.comp[rng.Intn(len(s.comp))]
	seen := map[int]bool{cur: true}
	order := []int{cur}
	for len(order) < n {
		cur = s.adj[cur][rng.Intn(len(s.adj[cur]))]
		if !seen[cur] {
			seen[cur] = true
			order = append(order, cur)
		}
	}
	return order
}

// walkExcess draws walks of n tables until one induces a join graph with
// exactly excess edges beyond a spanning tree (the last draw after 500
// tries).
func (s *mbSchema) walkExcess(n, excess int, rng *rand.Rand) *stmt {
	var st *stmt
	for try := 0; try < 500; try++ {
		st = s.induced(s.walk(n, rng))
		if len(st.edges)-(len(st.tables)-1) == excess {
			break
		}
	}
	return st
}

// induced builds the statement over the given tables with every
// foreign-key edge among them.
func (s *mbSchema) induced(tables []int) *stmt {
	st := &stmt{tables: tables}
	local := make(map[int]int, len(tables))
	for i, t := range tables {
		local[t] = i
	}
	for i, t := range tables {
		for _, u := range s.adj[t] {
			j, ok := local[u]
			if !ok || j <= i {
				continue
			}
			if s.refs[[2]int{t, u}] {
				st.edges = append(st.edges, [2]int{i, j})
			} else {
				st.edges = append(st.edges, [2]int{j, i})
			}
		}
	}
	sort.Slice(st.edges, func(a, b int) bool {
		if st.edges[a][0] != st.edges[b][0] {
			return st.edges[a][0] < st.edges[b][0]
		}
		return st.edges[a][1] < st.edges[b][1]
	})
	return st
}

// graphQuery is the generator's join graph as a query (statistics are
// placeholders): the reference the binder's output must be isomorphic to.
func (s *mbSchema) graphQuery(st *stmt) *cost.Query {
	var cat catalog.Catalog
	for _, t := range st.tables {
		cat.Add(catalog.NewRelation(s.names[t], 1000, 100))
	}
	g := graph.New(len(st.tables))
	for _, e := range st.edges {
		g.AddEdge(e[0], e[1], 0.001)
	}
	return &cost.Query{Cat: cat, G: g}
}

// naming is one way of writing a statement: the alias of every local
// relation, the FROM order, and whether join predicates are written
// referenced side first. Twins differ from their base only in naming.
type naming struct {
	alias   []string
	order   []int
	flip    bool
	predRot int
}

// baseNaming names relation i by the initials of its table plus i.
func (s *mbSchema) baseNaming(st *stmt) naming {
	nm := naming{alias: make([]string, len(st.tables)), order: make([]int, len(st.tables))}
	for i, t := range st.tables {
		var b strings.Builder
		for _, part := range strings.Split(s.names[t], "_") {
			b.WriteByte(part[0])
		}
		nm.alias[i] = fmt.Sprintf("%s%d", b.String(), i)
		nm.order[i] = i
	}
	return nm
}

// twinNaming renames every alias, permutes the FROM order and rewrites
// the WHERE clause: the same join problem as written by another client.
func twinNaming(st *stmt, rng *rand.Rand) naming {
	n := len(st.tables)
	nm := naming{alias: make([]string, n), order: rng.Perm(n), flip: rng.Intn(2) == 0}
	if len(st.edges) > 0 {
		nm.predRot = rng.Intn(len(st.edges))
	}
	tag := string(rune('p' + rng.Intn(10)))
	for i, k := range rng.Perm(n) {
		nm.alias[i] = fmt.Sprintf("%s%d", tag, k+rng.Intn(4)*n)
	}
	return nm
}

// render writes the statement as SQL. Each foreign-key edge joins its own
// column pair (<referenced>_id on the referencing side, <referencing>_ref
// on the referenced side), so the binder's equivalence-class closure adds
// no edges and the bound graph is exactly the generator's.
func (s *mbSchema) render(st *stmt, nm naming) string {
	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	for k, i := range nm.order {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", s.names[st.tables[i]], nm.alias[i])
	}
	var conj []string
	for k := range st.edges {
		e := st.edges[(k+nm.predRot)%len(st.edges)]
		from, to := e[0], e[1]
		l := fmt.Sprintf("%s.%s_id", nm.alias[from], s.names[st.tables[to]])
		r := fmt.Sprintf("%s.%s_ref", nm.alias[to], s.names[st.tables[from]])
		if nm.flip {
			l, r = r, l
		}
		conj = append(conj, l+" = "+r)
	}
	for _, p := range st.preds {
		if p.eq {
			conj = append(conj, fmt.Sprintf("%s.flag = %d", nm.alias[p.rel], p.lit))
		} else {
			conj = append(conj, fmt.Sprintf("%s.year > %d", nm.alias[p.rel], p.lit))
		}
	}
	if len(conj) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conj, " AND "))
	}
	return b.String()
}

// coldPreds gives a statement constant predicates on a random subset of
// its relations, so its statistics (and fingerprint) are new.
func coldPreds(st *stmt, rng *rand.Rand) {
	for i := range st.tables {
		switch rng.Intn(4) {
		case 0:
			st.preds = append(st.preds, predGen{rel: i, eq: true, lit: rng.Intn(100)})
		case 1:
			st.preds = append(st.preds, predGen{rel: i, lit: 1900 + rng.Intn(120)})
		case 2:
			st.preds = append(st.preds, predGen{rel: i, lit: 1900 + rng.Intn(120)},
				predGen{rel: i, lit: 1900 + rng.Intn(120)})
		}
	}
}

func sqlRequest(class, text string, st *stmt) *request {
	return &request{
		kind: kindSQL, class: class, label: fmt.Sprintf("musicbrainz-%d", len(st.tables)),
		body: []byte(text), rels: len(st.tables), st: st,
	}
}

// exactFP is the stats-sensitive cache identity of a bound statement.
func exactFP(text string, schema sql.Schema) (string, error) {
	b, err := sql.Compile(text, schema)
	if err != nil {
		return "", err
	}
	return service.FingerprintQuery(b.Query).Key, nil
}

// serveGen generates the serve-zipf traffic: a pool of MusicBrainz
// statements, then requests drawn from it by Zipf popularity.
type serveGen struct {
	mb     *mbSchema
	schema sql.Schema
	rng    *rand.Rand
	zipf   *rand.Zipf
	pool   []*request
	seen   map[string]bool // exact fingerprints already generated
	cold   int             // cold statements generated so far
	block  []string        // classes left in the current block of ten
}

const (
	servePool    = 256
	serveMinRels = 8
	serveMaxRels = 14
	zipfS        = 1.2
)

func newServeGen(seed int64) (*serveGen, error) {
	g := &serveGen{
		mb: newMBSchema(), schema: sql.MusicBrainzSchema(),
		rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{},
	}
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, servePool-1)
	// The pool, like the cold statements, cycles through every size and 0–2
	// extra edges, so the warm-up that optimizes it is the same amount of
	// work whatever the seed.
	sizes := serveMaxRels - serveMinRels + 1
	for len(g.pool) < servePool {
		k := len(g.pool)
		st := g.mb.walkExcess(serveMinRels+k%sizes, k/sizes%3, g.rng)
		text := g.mb.render(st, g.mb.baseNaming(st))
		fp, err := exactFP(text, g.schema)
		if err != nil {
			return nil, fmt.Errorf("rendering pool statement: %w", err)
		}
		if g.seen[fp] {
			continue
		}
		g.seen[fp] = true
		g.pool = append(g.pool, sqlRequest(classRepeat, text, st))
	}
	return g, nil
}

// next draws one request of the 70/20/10 repeat/twin/cold mix. The mix
// is exact in every block of ten requests (seven repeats, two twins, one
// cold statement, in a seeded order), so each run carries the same share
// of cache misses whatever the seed.
func (g *serveGen) next() (*request, error) {
	if len(g.block) == 0 {
		g.block = []string{classRepeat, classRepeat, classRepeat, classRepeat, classRepeat,
			classRepeat, classRepeat, classTwin, classTwin, classCold}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	class := g.block[0]
	g.block = g.block[1:]
	switch class {
	case classRepeat:
		b := g.pool[g.zipf.Uint64()]
		return sqlRequest(classRepeat, string(b.body), b.st), nil
	case classTwin:
		b := g.pool[g.zipf.Uint64()]
		r := sqlRequest(classTwin, g.mb.render(b.st, twinNaming(b.st, g.rng)), b.st)
		r.baseBody = b.body
		return r, nil
	}
	// Cold statements cycle through every size and 0–2 extra edges (a tree,
	// one cycle, two), so each run carries the same mix of enumeration
	// work whatever the seed.
	n := serveMinRels + g.cold%(serveMaxRels-serveMinRels+1)
	excess := g.cold / (serveMaxRels - serveMinRels + 1) % 3
	g.cold++
	for {
		st := g.mb.walkExcess(n, excess, g.rng)
		coldPreds(st, g.rng)
		text := g.mb.render(st, g.mb.baseNaming(st))
		fp, err := exactFP(text, g.schema)
		if err != nil {
			return nil, fmt.Errorf("rendering cold statement: %w", err)
		}
		if !g.seen[fp] {
			g.seen[fp] = true
			return sqlRequest(classCold, text, st), nil
		}
	}
}

// driftGen generates the serve-drift traffic: sliding windows along one
// random walk over a fixed MusicBrainz join universe, with statistics
// writes to tables of that universe interleaved.
type driftGen struct {
	mb      *mbSchema
	rng     *rand.Rand
	windows []*request // one statement per window position
	pos     int
	rows    map[int]float64 // current rows of every universe table
	univ    []int
	targets []int // universe tables in the order writes update them
	n       int   // requests generated
}

const (
	driftUniverse = 30
	// Windows hold 8–12 tables: the sequential-DPCCP band, so the
	// re-optimizations an update triggers stay short next to its window.
	driftMinRels = 8
	driftMaxRels = 12
	driftPath    = 400 // steps of the walk the windows slide along
	// Every driftUpdateEvery-th request is a write.
	driftUpdateEvery = 150
)

func newDriftGen(seed int64) *driftGen {
	g := &driftGen{mb: newMBSchema(), rng: rand.New(rand.NewSource(seed)), rows: map[int]float64{}}
	g.univ = g.mb.walk(driftUniverse, g.rng)
	in := map[int]bool{}
	for _, t := range g.univ {
		in[t] = true
		g.rows[t] = g.mb.rows[t]
	}
	// A walk restricted to the universe: consecutive steps are joined, so
	// every window of it is a connected statement.
	path := []int{g.univ[g.rng.Intn(len(g.univ))]}
	for len(path) < driftPath {
		cur := path[len(path)-1]
		var nb []int
		for _, u := range g.mb.adj[cur] {
			if in[u] {
				nb = append(nb, u)
			}
		}
		path = append(path, nb[g.rng.Intn(len(nb))])
	}
	// Window k starts at step 2k and extends until it holds its target
	// number of distinct tables; consecutive windows therefore share most
	// of their tables. Window sizes cycle through 8–12, so every seed warms
	// up the same mix of sizes.
	for start := 0; start+2 < len(path); start += 2 {
		want := driftMinRels + len(g.windows)%(driftMaxRels-driftMinRels+1)
		var tabs []int
		seen := map[int]bool{}
		for i := start; i < len(path) && len(tabs) < want; i++ {
			if !seen[path[i]] {
				seen[path[i]] = true
				tabs = append(tabs, path[i])
			}
		}
		if len(tabs) < driftMinRels {
			break
		}
		st := g.mb.induced(tabs)
		g.windows = append(g.windows, sqlRequest(classWindow, g.mb.render(st, g.mb.baseNaming(st)), st))
	}
	return g
}

// next returns the next read (the window slides by one or two positions)
// or, every driftUpdateEvery requests, a statistics write that rescales
// one universe table by up to 2× either way. Writes visit the universe's
// tables in seeded permutations, so every run spreads the same number of
// writes evenly over hub and leaf tables.
func (g *driftGen) next() *request {
	g.n++
	if g.n%driftUpdateEvery == 0 {
		if len(g.targets) == 0 {
			for _, k := range g.rng.Perm(len(g.univ)) {
				g.targets = append(g.targets, g.univ[k])
			}
		}
		t := g.targets[0]
		g.targets = g.targets[1:]
		g.rows[t] = math.Max(1, math.Round(g.mb.rows[t]*math.Pow(2, 2*g.rng.Float64()-1)))
		upd := &httpapi.CatalogRelStats{Name: g.mb.names[t], Rows: g.rows[t]}
		body, _ := json.Marshal(httpapi.CatalogStatsRequest{Relations: []httpapi.CatalogRelStats{*upd}})
		return &request{kind: kindUpdate, class: classUpdate, label: "catalog-stats", body: body, upd: upd}
	}
	g.pos = (g.pos + 1 + g.rng.Intn(2)) % len(g.windows)
	w := g.windows[g.pos]
	return sqlRequest(classWindow, string(w.body), w.st)
}

// coldSpec is one query family and size of a cold workload's round.
type coldSpec struct {
	kind workload.Kind
	n    int
}

// coldExactRound is one round of cold-exact: 13–18 relations across
// MusicBrainz, star, cycle and snowflake, plus cliques of 13 and 14. The
// router sends all of them to CPU-parallel MPDP. The mix is stratified so
// the median lands inside a group of queries whose optimization time
// hardly depends on the seed: eight cheap snowflakes, cycles and small
// MusicBrainz walks, then six star-15s, then eight heavier queries.
var coldExactRound = []coldSpec{
	{workload.KindSnowflake, 14}, {workload.KindSnowflake, 16}, {workload.KindSnowflake, 18},
	{workload.KindCycle, 14}, {workload.KindCycle, 16}, {workload.KindCycle, 18},
	{workload.KindMB, 13}, {workload.KindMB, 14}, {workload.KindMB, 15},
	{workload.KindStar, 15}, {workload.KindStar, 15}, {workload.KindStar, 15},
	{workload.KindStar, 15}, {workload.KindStar, 15}, {workload.KindStar, 15},
	{workload.KindMB, 16}, {workload.KindMB, 17}, {workload.KindMB, 18},
	{workload.KindStar, 16}, {workload.KindClique, 13},
	{workload.KindStar, 18}, {workload.KindClique, 14},
}

// coldLargeRound is one round of cold-large: 26–100 relations. MB-26 to
// MB-40 and snowflake-40 exhaust the exact budget before the heuristic
// fallback answers; the rest route straight to GPU-MPDP (chains up to 40)
// or to IDP₂/UnionDP. As in cold-exact, the median falls inside a group
// of equal queries (six snowflake-100s, answered by IDP₂) with ten faster
// ones below and ten slower ones above.
var coldLargeRound = []coldSpec{
	{workload.KindChain, 26}, {workload.KindChain, 32}, {workload.KindChain, 40},
	{workload.KindChain, 50}, {workload.KindChain, 64}, {workload.KindChain, 100},
	{workload.KindCycle, 50}, {workload.KindCycle, 64}, {workload.KindCycle, 100},
	{workload.KindSnowflake, 50},
	{workload.KindSnowflake, 100}, {workload.KindSnowflake, 100}, {workload.KindSnowflake, 100},
	{workload.KindSnowflake, 100}, {workload.KindSnowflake, 100}, {workload.KindSnowflake, 100},
	{workload.KindMB, 45},
	{workload.KindMB, 26}, {workload.KindMB, 30}, {workload.KindMB, 32}, {workload.KindMB, 34},
	{workload.KindMB, 36}, {workload.KindMB, 38}, {workload.KindMB, 40},
	{workload.KindSnowflake, 40}, {workload.KindSnowflake, 40},
}

// coldGen generates never-seen structured queries, one round of the
// workload's families and sizes at a time.
type coldGen struct {
	round []coldSpec
	rng   *rand.Rand
	seen  map[string]bool
}

func newColdGen(round []coldSpec, seed int64) *coldGen {
	return &coldGen{round: round, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// nextRound returns one round of fresh queries, in the round's fixed
// order so that every run sees the same sequence of query families.
func (g *coldGen) nextRound() ([]*request, error) {
	var out []*request
	for _, spec := range g.round {
		for {
			q, err := workload.Generate(spec.kind, spec.n, g.rng)
			if err != nil {
				return nil, err
			}
			// The snowflake generator is deterministic per size; a small
			// random filter on each relation keeps every query unseen
			// without changing its shape.
			for i := range q.Cat.Rels {
				q.Cat.Rels[i].Rows = math.Max(1, math.Round(q.Cat.Rels[i].Rows*(1-0.01*g.rng.Float64())))
			}
			fp := service.FingerprintQuery(q).Key
			if g.seen[fp] {
				continue
			}
			g.seen[fp] = true
			body, err := json.Marshal(httpapi.FromQuery(q))
			if err != nil {
				return nil, err
			}
			out = append(out, &request{
				kind: kindJSON, class: classCold, label: fmt.Sprintf("%s-%d", spec.kind, q.N()),
				body: body, rels: q.N(), q: q,
			})
			break
		}
	}
	return out, nil
}

// poissonSchedule returns send offsets of a Poisson process at rate req/s
// over d.
func poissonSchedule(rate float64, d time.Duration, rng *rand.Rand) []time.Duration {
	var at []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return at
		}
		at = append(at, off)
	}
}
