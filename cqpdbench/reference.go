package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"cqp"
)

// The response shapes below mirror the fields of cqpd's answers that the
// correctness check compares or the failure rules inspect.

type rowResp struct {
	Values  []string `json:"values"`
	Doi     float64  `json:"doi"`
	Matched int      `json:"matched"`
}

type solutionResp struct {
	Doi           float64 `json:"doi"`
	StatesVisited int     `json:"states_visited"`
	Truncated     bool    `json:"truncated"`
}

type pipelineResp struct {
	SQL            string       `json:"sql"`
	Preferences    []string     `json:"preferences"`
	PreferenceDois []float64    `json:"preference_dois"`
	Solution       solutionResp `json:"solution"`
	Degraded       string       `json:"degraded"`
	Rows           []rowResp    `json:"rows"`
	TotalRows      int          `json:"total_rows"`
	BlockReads     int64        `json:"block_reads"`
	// /front
	Points []frontPoint `json:"points"`
	// /topk
	Answers []rowResp `json:"answers"`
	// /personalize/batch
	Results []batchItemResp `json:"results"`
}

// profileResp is the answer of PUT and GET /profiles/{id}.
type profileResp struct {
	Version      uint64 `json:"version"`
	Text         string `json:"text"`
	StaleReplica bool   `json:"stale_replica"`
}

type frontPoint struct {
	Preferences []string `json:"preferences"`
	Doi         float64  `json:"doi"`
	CostMS      float64  `json:"cost_ms"`
	SizeRows    float64  `json:"size_rows"`
	Knee        bool     `json:"knee"`
}

type batchItemResp struct {
	pipelineResp
	Error *struct {
		Class   string `json:"class"`
		Message string `json:"message"`
	} `json:"error"`
}

// answer is the comparable part of one pipeline answer: the SQL, the chosen
// preferences and doi, the search counters, and the ranked rows with their
// BlockReads (or the frontier, or the top-k answers).
type answer struct {
	SQL        string
	Prefs      []string
	Dois       []float64
	Doi        float64
	States     int
	Truncated  bool
	Rows       []rowResp
	TotalRows  int
	BlockReads int64
	Points     []frontPoint
	Items      []answer
}

func answerFrom(endpoint string, r *pipelineResp) answer {
	switch endpoint {
	case epFront:
		return answer{Points: r.Points}
	case epTopK:
		return answer{Rows: r.Answers}
	case epBatch:
		a := answer{}
		for i := range r.Results {
			a.Items = append(a.Items, answerFrom(epExecute, &r.Results[i].pipelineResp))
		}
		return a
	}
	a := answer{SQL: r.SQL, Prefs: r.Preferences, Dois: r.PreferenceDois, Doi: r.Solution.Doi,
		States: r.Solution.StatesVisited, Truncated: r.Solution.Truncated}
	if endpoint == epExecute {
		a.Rows, a.TotalRows, a.BlockReads = r.Rows, r.TotalRows, r.BlockReads
	}
	return a
}

// sameAnswer compares two answers, treating nil and empty slices alike (the
// daemon's JSON drops neither, the library returns either).
func sameAnswer(a, b answer) bool {
	ja, _ := json.Marshal(normalize(a))
	jb, _ := json.Marshal(normalize(b))
	return reflect.DeepEqual(ja, jb)
}

func normalize(a answer) answer {
	if len(a.Prefs) == 0 {
		a.Prefs = nil
	}
	if len(a.Dois) == 0 {
		a.Dois = nil
	}
	if len(a.Rows) == 0 {
		a.Rows = nil
	}
	if len(a.Points) == 0 {
		a.Points = nil
	}
	for i := range a.Points {
		if len(a.Points[i].Preferences) == 0 {
			a.Points[i].Preferences = nil
		}
	}
	for i := range a.Items {
		a.Items[i] = normalize(a.Items[i])
	}
	return a
}

// loadDB loads the generated CSVs exactly as cqpd's -csv flag does: one
// file per relation, in schema order, into a default-block-size database.
func loadDB(dir string) (*cqp.DB, error) {
	db := cqp.NewDB(cqp.MovieSchema(), 0)
	for _, rel := range db.Schema().RelationNames() {
		path := filepath.Join(dir, strings.ToLower(rel)+".csv")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		_, err = cqp.LoadCSV(db, rel, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return db, nil
}

// referee computes reference answers in process with the library, the way
// cqpd's handlers call it.
type referee struct {
	p     *cqp.Personalizer
	db    *cqp.DB
	texts []string
}

func (rf *referee) profile(id string) (*cqp.Profile, error) {
	var i int
	if _, err := fmt.Sscanf(id, "u%d", &i); err != nil || i < 0 || i >= len(rf.texts) {
		return nil, fmt.Errorf("unknown profile %q", id)
	}
	return cqp.ParseProfile(rf.texts[i])
}

func (rf *referee) answer(req request) (answer, error) {
	if req.Endpoint == epBatch {
		a := answer{}
		for _, it := range req.Items {
			ia, err := rf.pipeline(epExecute, it)
			if err != nil {
				return answer{}, err
			}
			a.Items = append(a.Items, ia)
		}
		return a, nil
	}
	var body pipelineBody
	if err := json.Unmarshal(req.Body, &body); err != nil {
		return answer{}, err
	}
	return rf.pipeline(req.Endpoint, body)
}

func (rf *referee) pipeline(endpoint string, b pipelineBody) (answer, error) {
	ctx := context.Background()
	q, err := cqp.ParseQuery(rf.db.Schema(), b.SQL)
	if err != nil {
		return answer{}, err
	}
	prof, err := rf.profile(b.ProfileID)
	if err != nil {
		return answer{}, err
	}
	var opts []cqp.Option
	if b.Budget > 0 {
		opts = append(opts, cqp.WithStateBudget(b.Budget))
	}
	switch endpoint {
	case epFront:
		f, err := rf.p.PersonalizeFrontContext(ctx, q, prof, b.CmaxMS, 0, 0, b.MaxPoints, opts...)
		if err != nil {
			return answer{}, err
		}
		a := answer{}
		for _, fp := range f.Points {
			a.Points = append(a.Points, frontPoint{Preferences: fp.Preferences, Doi: fp.Doi,
				CostMS: fp.CostMS, SizeRows: fp.Size, Knee: fp.Knee})
		}
		return a, nil
	case epTopK:
		ans, err := rf.p.PersonalizeTopKContext(ctx, q, prof, b.CmaxMS, b.K)
		if err != nil {
			return answer{}, err
		}
		a := answer{}
		for _, x := range ans {
			a.Rows = append(a.Rows, rowResp{Values: rowValues(x.Row), Doi: x.Doi, Matched: x.Matched})
		}
		return a, nil
	}
	prob := cqp.Problem2(400)
	if b.Problem != nil && b.Problem.Number != 0 {
		prob, err = cqp.BuildProblem(b.Problem.Number, b.Problem.CmaxMS, b.Problem.Smin, b.Problem.Smax, 0)
		if err != nil {
			return answer{}, err
		}
	}
	res, err := rf.p.PersonalizeContext(ctx, q, prof, prob, opts...)
	if err != nil {
		return answer{}, err
	}
	a := answer{SQL: res.SQL, Prefs: res.Preferences, Dois: res.PreferenceDois, Doi: res.Solution.Doi,
		States: res.Solution.Stats.StatesVisited, Truncated: res.Solution.Stats.Truncated}
	if endpoint == epExecute {
		rows, err := res.ExecuteContext(ctx)
		if err != nil {
			return answer{}, err
		}
		a.TotalRows, a.BlockReads = len(rows.Rows), rows.BlockReads
		for i, r := range rows.Rows {
			if i >= b.Limit {
				break
			}
			a.Rows = append(a.Rows, rowResp{Values: rowValues(r.Key), Doi: r.Doi, Matched: len(r.Matched)})
		}
	}
	return a, nil
}

func rowValues(r cqp.Row) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = v.String()
	}
	return out
}
