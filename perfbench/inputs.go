package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/bench"
	"repro/internal/store"
)

// askInput is one distinct question of a workload.
type askInput struct {
	Domain string // the dataset (and engine) that answers it
	Text   string
	Gold   string // gold SQL, "" when the input has none

	// Typo marks a seeded misspelling of a gold question, the one kind
	// of input the interface may decline to interpret: spelling
	// correction does not repair every typo. Any other input must be
	// answered.
	Typo bool

	// Dialogue and Turn place a conversation turn: Dialogue indexes the
	// dialogue case (-1 for a standalone question), Turn the utterance
	// within it.
	Dialogue int
	Turn     int
}

// inputSet is the distinct inputs of a workload, deduplicated in
// generation order.
type inputSet struct {
	Inputs []askInput
	seen   map[string]bool
}

func (s *inputSet) add(in askInput) int {
	key := fmt.Sprintf("%s\x00%s\x00%d\x00%d", in.Domain, in.Text, in.Dialogue, in.Turn)
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if s.seen[key] {
		return -1
	}
	s.seen[key] = true
	s.Inputs = append(s.Inputs, in)
	return len(s.Inputs) - 1
}

// goldInputs is the gold corpus of each domain with its registered
// paraphrases and, with typos, one seeded one-typo variant of every
// question. The seed decides only which word each typo lands in and
// how; the set of questions, and so the mix of shapes, is the same for
// every seed.
func goldInputs(seed int64, domains []string, typos bool) []askInput {
	r := rand.New(rand.NewSource(seed))
	var set inputSet
	for _, d := range domains {
		cases := bench.WithParaphrases(bench.Corpus(d))
		for _, c := range cases {
			set.add(askInput{Domain: d, Text: c.Question, Gold: c.Gold, Dialogue: -1})
		}
		for _, c := range cases {
			if !typos {
				break
			}
			set.add(askInput{Domain: d, Text: bench.InjectTypos(c.Question, 1, r.Int63()), Gold: c.Gold, Typo: true, Dialogue: -1})
		}
	}
	return set.Inputs
}

// eventsBaseTS is the first timestamp of dataset.Events; ts advances by
// one every eight rows.
const eventsBaseTS = 1_700_000_000

var eventLevels = []string{"debug", "info", "warn", "error"}
var eventStatuses = []int{200, 429, 500, 503}

// spilledInputs draws the event-log questions: level, status and device
// filters that scan every segment, timestamp windows that zone maps
// prune to one or two segments, and per-service and per-level
// group-bys. Each family contributes a fixed set of questions; the seed
// picks only device ids and window positions, which do not change how
// much a question scans. Every question carries its gold SQL.
func spilledInputs(seed int64, rows int) []askInput {
	r := rand.New(rand.NewSource(seed))
	var set inputSet
	add := func(text, gold string) {
		set.add(askInput{Domain: "events", Text: text, Gold: gold, Dialogue: -1})
	}
	span := rows / 8
	window := span / 64
	windowAt := func() (int, int) {
		lo := eventsBaseTS + r.Intn(span-window)
		return lo, lo + window
	}
	devices := r.Perm(4096)

	for _, l := range eventLevels {
		add("how many events with level "+l,
			fmt.Sprintf("SELECT COUNT(*) FROM events WHERE level = '%s'", l))
	}
	for _, st := range eventStatuses {
		add(fmt.Sprintf("how many events with status %d", st),
			fmt.Sprintf("SELECT COUNT(*) FROM events WHERE status = %d", st))
	}
	for _, d := range devices[:3] {
		add(fmt.Sprintf("how many events with device %d", d),
			fmt.Sprintf("SELECT COUNT(*) FROM events WHERE device_id = %d", d))
	}
	for i, l := range eventLevels {
		d := devices[3+i]
		add(fmt.Sprintf("how many events with device %d and level %s", d, l),
			fmt.Sprintf("SELECT COUNT(*) FROM events WHERE device_id = %d AND level = '%s'", d, l))
	}
	for i := 0; i < 4; i++ {
		lo, hi := windowAt()
		add(fmt.Sprintf("how many events with ts between %d and %d", lo, hi),
			fmt.Sprintf("SELECT COUNT(*) FROM events WHERE ts BETWEEN %d AND %d", lo, hi))
	}
	for i := 0; i < 4; i++ {
		lo, hi := windowAt()
		add(fmt.Sprintf("average latency of events with ts between %d and %d", lo, hi),
			fmt.Sprintf("SELECT AVG(latency_ms) FROM events WHERE ts BETWEEN %d AND %d", lo, hi))
	}
	for i := 0; i < 2; i++ {
		after := eventsBaseTS + span - window - r.Intn(window)
		add(fmt.Sprintf("how many events with ts over %d", after),
			fmt.Sprintf("SELECT COUNT(*) FROM events WHERE ts > %d", after))
	}
	add("how many events per service", "SELECT service, COUNT(*) FROM events GROUP BY service")
	add("how many events per level", "SELECT level, COUNT(*) FROM events GROUP BY level")
	add("average latency per service", "SELECT service, AVG(latency_ms) FROM events GROUP BY service")
	for _, l := range eventLevels {
		add("how many events with level "+l+" per service",
			fmt.Sprintf("SELECT service, COUNT(*) FROM events WHERE level = '%s' GROUP BY service", l))
		add("maximum latency of events with level "+l,
			fmt.Sprintf("SELECT MAX(latency_ms) FROM events WHERE level = '%s'", l))
	}
	return set.Inputs
}

// sequence replays the inputs closed-loop in seeded order: each cycle
// is a fresh shuffle of every input, so any prefix longer than a cycle
// carries the workload's whole mix.
type sequence struct {
	r    *rand.Rand
	perm []int
	pos  int
}

func newSequence(seed int64, n int) *sequence {
	r := rand.New(rand.NewSource(seed))
	return &sequence{r: r, perm: r.Perm(n)}
}

func (s *sequence) next() int {
	if s.pos == len(s.perm) {
		s.r.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	i := s.perm[s.pos]
	s.pos++
	return i
}

// serveData is what the serve-mixed generators draw constants from:
// value domains read from the loaded university dataset.
type serveData struct {
	Depts    []string
	GPAs     []float64
	Salaries []float64
	Students int // student ids are 1..Students
	Courses  int // course ids are 1..Courses
}

func readServeData(sn *store.Snapshot) serveData {
	distinct := func(table, col string) []float64 {
		t := sn.Table(table)
		ci := t.ColIndex(col)
		seen := map[float64]bool{}
		var out []float64
		for _, row := range t.Rows() {
			if f, ok := row[ci].AsFloat(); ok && !row[ci].IsNull() && !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
		sort.Float64s(out)
		return out
	}
	var depts []string
	dt := sn.Table("departments")
	ni := dt.ColIndex("name")
	for _, row := range dt.Rows() {
		depts = append(depts, row[ni].Str())
	}
	return serveData{
		Depts:    depts,
		GPAs:     distinct("students", "gpa"),
		Salaries: distinct("instructors", "salary"),
		Students: sn.Table("students").Len(),
		Courses:  sn.Table("courses").Len(),
	}
}

// serveInputs builds the distinct asks of serve-mixed, in three pools:
// the university gold corpus with paraphrases (Zipf-repeated, so the
// answer cache serves most of them), questions of the prepared-query
// workload's shapes with constants drawn from the data (they bind plan
// templates), and the university dialogue sessions turn by turn.
type servePools struct {
	Inputs   []askInput
	Gold     []int   // Zipf rank order
	Prepared []int   // uniform
	Dialogue [][]int // per dialogue case, its turns in order
}

func serveInputs(seed int64, d serveData) servePools {
	r := rand.New(rand.NewSource(seed))
	var set inputSet
	var p servePools
	for _, c := range bench.WithParaphrases(bench.Corpus("university")) {
		if i := set.add(askInput{Domain: "university", Text: c.Question, Gold: c.Gold, Dialogue: -1}); i >= 0 {
			p.Gold = append(p.Gold, i)
		}
	}
	num := func(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
	gpa := func() string { return num(d.GPAs[r.Intn(len(d.GPAs))]) }
	dept := func() string { return d.Depts[r.Intn(len(d.Depts))] }
	shapes := []func() string{
		func() string { return "students with gpa over " + gpa() },
		func() string { return "how many students are in " + dept() },
		func() string {
			a, b := r.Intn(len(d.Salaries)), r.Intn(len(d.Salaries))
			if a > b {
				a, b = b, a
			}
			return "instructors with salary between " + num(d.Salaries[a]) + " and " + num(d.Salaries[b])
		},
		func() string { return "average salary of instructors in " + dept() },
		func() string { return "how many courses are in " + dept() },
		func() string { return "students in " + dept() + " with gpa over " + gpa() },
		func() string { return "names of students in " + dept() + " with gpa over " + gpa() },
	}
	for k := 0; k < 32; k++ {
		for _, shape := range shapes {
			if i := set.add(askInput{Domain: "university", Text: shape(), Dialogue: -1}); i >= 0 {
				p.Prepared = append(p.Prepared, i)
			}
		}
	}
	for ci, c := range bench.DialogueCorpus() {
		if c.Domain != "university" {
			continue
		}
		var turns []int
		for ti, t := range c.Turns {
			turns = append(turns, set.add(askInput{Domain: "university", Text: t, Dialogue: ci, Turn: ti}))
		}
		p.Dialogue = append(p.Dialogue, turns)
	}
	p.Inputs = set.Inputs
	return p
}

// serveOp is one step of a serve-mixed client: an ask of a distinct
// input (on a dialogue session when Session is set) or a write.
type serveOp struct {
	Input   int
	Session string
	Write   []store.Row
}

// The serve-mixed operation mix. The even split of the standalone
// questions between Zipf-repeated gold questions (hot: the answer cache
// serves them) and prepared shapes with rotating constants (cold) is
// the hot/cold mix of the F10 serving experiment (bench.RunF10: half
// repeat a question, half rotate constants). F10 has no conversations
// and no writes, and no query log fixes their shares or the Zipf
// exponent here: those three are assumed. Dialogue sessions are one
// pick in eight, enough for follow-up turns to be a steady tenth or so
// of the asks; writes are one pick in twenty, so every run publishes
// hundreds of batches (each invalidating the cached answers over
// enrollments) while reads stay the bulk of the work. The exponent 1.1
// keeps a hot head while every gold question still comes up.
const (
	dialogueShare = 0.12
	writeShare    = 0.05
	hotShare      = (1 - dialogueShare - writeShare) / 2 // and as much cold
	zipfExponent  = 1.1
	writeBatch    = 8
)

// serveStream generates one client's operations in the mix above: a
// dialogue session queues all its turns in order, on a fresh session;
// a write is a batch of foreign-key-valid enrollments rows.
type serveStream struct {
	r       *rand.Rand
	p       *servePools
	d       serveData
	zipf    *rand.Zipf
	client  int
	queue   []serveOp
	session int
}

func newServeStream(seed int64, client int, p *servePools, d serveData) *serveStream {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	return &serveStream{
		r: r, p: p, d: d, client: client,
		zipf: rand.NewZipf(r, zipfExponent, 1, uint64(len(p.Gold)-1)),
	}
}

var grades = []string{"A", "B", "C", "D", "F"}

func (s *serveStream) next() serveOp {
	if len(s.queue) > 0 {
		op := s.queue[0]
		s.queue = s.queue[1:]
		return op
	}
	x := s.r.Float64()
	switch {
	case x < hotShare:
		return serveOp{Input: s.p.Gold[s.zipf.Uint64()]}
	case x < 2*hotShare:
		return serveOp{Input: s.p.Prepared[s.r.Intn(len(s.p.Prepared))]}
	case x < 2*hotShare+dialogueShare:
		turns := s.p.Dialogue[s.r.Intn(len(s.p.Dialogue))]
		s.session++
		sess := fmt.Sprintf("c%d-s%d", s.client, s.session)
		for _, t := range turns {
			s.queue = append(s.queue, serveOp{Input: t, Session: sess})
		}
		return s.next()
	default:
		rows := make([]store.Row, writeBatch)
		for i := range rows {
			rows[i] = store.Row{
				store.Int(int64(1 + s.r.Intn(s.d.Students))),
				store.Int(int64(1 + s.r.Intn(s.d.Courses))),
				store.Text(grades[s.r.Intn(len(grades))]),
			}
		}
		return serveOp{Input: -1, Write: rows}
	}
}
