package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"colarm"
	"colarm/internal/colarmql"
)

// request is one /v1/mine call of a workload's list. Requests that
// must return the same rule set — the five forced MIP plans of one
// query — share an answer slot.
type request struct {
	table  int // index into the environment's tables/engines
	query  colarm.Query
	ql     string // non-empty: sent as a raw COLARM-QL text body
	answer int    // index into the list's expected answers
	// noCache asks the server to keep the request out of the result
	// cache. The miss workloads set it: the cache is bounded by entries,
	// not bytes, so a run that filled it would grow the live heap by
	// every reply — about a gigabyte in 15 s — and each pass would pay
	// more GC than the one before (README, sizing facts).
	noCache bool
}

// mineBody is the structured JSON body of /v1/mine.
type mineBody struct {
	Dataset        string              `json:"dataset"`
	Range          map[string][]string `json:"range,omitempty"`
	ItemAttributes []string            `json:"itemAttributes,omitempty"`
	MinSupport     float64             `json:"minSupport"`
	MinConfidence  float64             `json:"minConfidence"`
	MaxConsequent  int                 `json:"maxConsequent,omitempty"`
	Plan           string              `json:"plan,omitempty"`
	NoCache        bool                `json:"noCache,omitempty"`
}

// body renders the request's HTTP body and content type.
func (r request) body(dataset string) ([]byte, string) {
	if r.ql != "" {
		return []byte(r.ql), "text/plain"
	}
	b, err := json.Marshal(mineBody{
		Dataset:        dataset,
		Range:          r.query.Range,
		ItemAttributes: r.query.ItemAttributes,
		MinSupport:     r.query.MinSupport,
		MinConfidence:  r.query.MinConfidence,
		MaxConsequent:  r.query.MaxConsequent,
		Plan:           r.query.Plan.String(),
		NoCache:        r.noCache,
	})
	if err != nil {
		panic(err) // strings, floats and ints only: cannot fail
	}
	return b, "application/json"
}

// The focal subset sizes of the paper's grid (EXPERIMENTS.md E5).
var e5Fracs = []float64{0.50, 0.20, 0.10, 0.01}

var mipPlans = []colarm.Plan{colarm.SEV, colarm.SVS, colarm.SSEV, colarm.SSVS, colarm.SSEUV}

const (
	// gridMaxRules caps one timed reply's rule set on the miss
	// workloads. Near-homogeneous focal subsets explode into tens of
	// thousands of rules (ROADMAP item 5a); a few such replies would
	// decide a list's p95, so their regions are drawn again.
	gridMaxRules = 8000
	// maxDraws bounds the draws per request; the last draw is kept even
	// when its rule count is still outside the band.
	maxDraws = 16
)

// listBuilder assembles one corpus of requests over an environment's
// tables. A timed corpus (want non-nil) computes through the facade,
// on the environment's own engine, the answer every request must
// return; a warm-up corpus makes no engine call.
type listBuilder struct {
	e    *env
	rng  *rand.Rand
	want *[]answer
	list []request
	// A timed request is drawn again while its answer has fewer than
	// minRules or more than maxRules rules.
	minRules, maxRules int
}

// add appends one request per plan for a drawn query; the plans share
// one answer slot, so they are checked against the facade's answer
// under the first of them and thereby against each other.
func (b *listBuilder) add(ti int, draw func() colarm.Query, plans ...colarm.Plan) error {
	q := draw()
	slot := 0
	if b.want != nil {
		q.Plan = plans[0]
		res, err := b.e.engines[ti].Mine(q)
		for n := 1; err == nil && (len(res.Rules) < b.minRules || len(res.Rules) > b.maxRules) && n < maxDraws; n++ {
			q = draw()
			q.Plan = plans[0]
			res, err = b.e.engines[ti].Mine(q)
		}
		if err != nil {
			return fmt.Errorf("expected answer of %s: %w", q.Canonical(), err)
		}
		slot = len(*b.want)
		*b.want = append(*b.want, answerOf(res.Rules))
	}
	for _, p := range plans {
		q.Plan = p
		b.list = append(b.list, request{table: ti, query: q, answer: slot, noCache: true})
	}
	return nil
}

// grid adds every (|DQ|, minsupp, minconf) cell of a table's E5 grid,
// each over a freshly drawn focal region, under each of the plans.
func (b *listBuilder) grid(ti int, plans ...colarm.Plan) error {
	t := b.e.tables[ti]
	b.maxRules = gridMaxRules
	for _, frac := range e5Fracs {
		for _, ms := range t.minSupps {
			for _, mc := range t.minConfs {
				err := b.add(ti, func() colarm.Query {
					return colarm.Query{Range: t.focalRange(b.rng, frac), MinSupport: ms, MinConfidence: mc, MaxConsequent: 1}
				}, plans...)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// mipList is the mine_mip corpus: every E5 cell of every table under
// each of the five forced MIP plans.
func mipList(b *listBuilder) ([]request, error) {
	for ti := range b.e.tables {
		if err := b.grid(ti, mipPlans...); err != nil {
			return nil, err
		}
	}
	return b.list, nil
}

// autoList is the mine_auto corpus: every E5 cell of every table under
// the optimizer's choice, plus two large-subset cells per table (the
// whole domain, and 90 % of the records) whose localized threshold
// clears the primary count so the applicability gate admits MIP plans.
func autoList(b *listBuilder) ([]request, error) {
	for ti, t := range b.e.tables {
		if err := b.grid(ti, colarm.Auto); err != nil {
			return nil, err
		}
		for _, frac := range []float64{1, 0.90} {
			err := b.add(ti, func() colarm.Query {
				q := colarm.Query{MinSupport: t.minSupps[len(t.minSupps)-1], MinConfidence: t.minConfs[1], MaxConsequent: 1}
				if frac < 1 {
					q.Range = t.focalRange(b.rng, frac)
				}
				return q
			}, colarm.Auto)
			if err != nil {
				return nil, err
			}
		}
	}
	return b.list, nil
}

const (
	hotQueries   = 64  // distinct texts: the working set, far under the 4096-entry cache
	hotItemAttrs = 12  // ITEM ATTRIBUTES per text: QL has no consequent cap, this bounds the rule set
	hotZipfS     = 1.1 // popularity skew of the draws
	// A hot reply carries between hotMinRules and hotMaxRules rules.
	// The most popular text takes a fifth of the draws, so without the
	// band its size — anything from 0 to 2000 rules — would decide the
	// workload's latency.
	hotMinRules = 50
	hotMaxRules = 800
)

// hotTexts builds the mine_hot working set: distinct COLARM-QL texts,
// alternating over the tables, each a half- or fifth-size focal subset
// with a dozen item attributes.
func hotTexts(b *listBuilder) ([]request, error) {
	b.minRules, b.maxRules = hotMinRules, hotMaxRules
	seen := map[string]bool{}
	for len(b.list) < hotQueries {
		ti := len(b.list) % len(b.e.tables)
		t := b.e.tables[ti]
		var ql string
		var drawErr error
		err := b.add(ti, func() colarm.Query {
			items := make([]string, 0, hotItemAttrs)
			for _, a := range b.rng.Perm(len(t.attrs)) {
				if len(items) < hotItemAttrs {
					items = append(items, t.attrs[a])
				}
			}
			sort.Strings(items)
			ql = qlText(t.name, t.focalRange(b.rng, e5Fracs[b.rng.Intn(2)]), items,
				t.minSupps[b.rng.Intn(len(t.minSupps))], t.minConfs[b.rng.Intn(len(t.minConfs))])
			q, err := b.e.engines[ti].ParseQuery(ql)
			if err != nil {
				drawErr = err
			}
			return q
		}, colarm.Auto)
		if err = errors.Join(drawErr, err); err != nil {
			return nil, err
		}
		if seen[ql] {
			b.list = b.list[:len(b.list)-1]
			continue
		}
		seen[ql] = true
		b.list[len(b.list)-1].ql = ql // a text body: cached, which is the point
	}
	return b.list, nil
}

// shuffled returns the corpus in random order, so that a prefix of it
// carries the whole mix.
func shuffled(list []request, rng *rand.Rand) []request {
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// hotDraws is the mine_hot send order, n requests in passes of passLen.
// Every pass is the same multiset — text k, the first the most popular,
// as often as a Zipf(hotZipfS) popularity of (1+k)^-s gives it of
// passLen draws, by largest remainder — in an order rng shuffles.
// Drawing each request at random was tried first: the mix of reply
// sizes, hence the work of a run, then differed between seeds by 4 %.
func hotDraws(texts []request, rng *rand.Rand, passLen, n int) []request {
	weights := make([]float64, len(texts))
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -hotZipfS)
		total += weights[k]
	}
	counts := make([]int, len(texts))
	byRemainder := make([]int, len(texts))
	left := passLen
	for k, w := range weights {
		weights[k] = float64(passLen) * w / total
		counts[k] = int(weights[k])
		left -= counts[k]
		byRemainder[k] = k
	}
	sort.SliceStable(byRemainder, func(i, j int) bool {
		a, b := byRemainder[i], byRemainder[j]
		return weights[a]-float64(counts[a]) > weights[b]-float64(counts[b])
	})
	for _, k := range byRemainder[:left] {
		counts[k]++
	}
	pass := make([]request, 0, passLen)
	for k, c := range counts {
		for ; c > 0; c-- {
			pass = append(pass, texts[k])
		}
	}
	var list []request
	for len(list) < n {
		list = append(list, shuffled(slices.Clone(pass), rng)...)
	}
	return list[:n]
}

// qlText renders a query in the paper's query language.
func qlText(dataset string, rng map[string][]string, items []string, minSupp, minConf float64) string {
	st := colarmql.Statement{Dataset: dataset, ItemAttrs: items, MinSupport: minSupp, MinConfidence: minConf}
	for a, vals := range rng {
		st.Range = append(st.Range, colarmql.RangeClause{Attr: a, Values: vals})
	}
	sort.Slice(st.Range, func(i, j int) bool { return st.Range[i].Attr < st.Range[j].Attr })
	return st.String()
}
