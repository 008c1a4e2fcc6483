package cqp

import (
	"strconv"
	"strings"
)

// Mode names the answer a pipeline request wants — the stage the Figure-2
// pipeline ends in.
type Mode uint8

const (
	// ModePersonalize stops after query construction: the personalized
	// query and the chosen preferences.
	ModePersonalize Mode = iota
	// ModeExecute also runs the personalized query for its ranked rows.
	ModeExecute
	// ModeFront answers the doi/cost Pareto menu (PersonalizeFront).
	ModeFront
	// ModeTopK answers the k highest-interest rows (PersonalizeTopK).
	ModeTopK
)

var modeNames = [...]string{"personalize", "execute", "front", "topk"}

// String names the mode the way cqpd names its endpoints.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "mode" + strconv.Itoa(int(m))
}

// Request is everything that decides what one pipeline run computes, and
// nothing that does not (deadlines, tracing): two requests with equal Keys
// get the same answer, so one run may answer both.
type Request struct {
	Mode  Mode
	Query *Query
	// ProfileID and Version name a stored profile at one version;
	// ProfileText is an inline profile's text. Key writes whichever is set,
	// the inline text in full.
	ProfileID   string
	Version     uint64
	ProfileText string
	// Problem is the Table-1 problem. Front requests use its CostMax,
	// SizeMin and SizeMax as the menu's bounds; top-k requests run
	// Problem 2 under its CostMax.
	Problem Problem
	// Opts are the per-call options; Key resolves them over the defaults.
	Opts []Option
	// Limit caps the answer: rows (execute), answers (top-k) or menu
	// points (front; 0 = all).
	Limit int
	// NoCache marks a request that must be computed afresh: it is not the
	// same request as its cacheable twin.
	NoCache bool
	// Generation is the statistics generation the request runs under.
	Generation uint64
}

// versionField opens the key's trailing version-dependent fields; see
// StaleKey.
const versionField = "|version="

// Key renders the request's canonical identity: every field, written by
// name, with the options resolved over their defaults — so a knob left at
// its default and the same knob set explicitly give the same key, and any
// field that changes the run changes the key. Strings are length-prefixed
// and the inline profile and query fingerprint are kept whole (no digest),
// so distinct requests never collide. The profile version and statistics
// generation come last; StaleKey strips them.
func (r *Request) Key() string {
	o := resolveOptions(r.Opts)
	fp := r.Query.Fingerprint()
	var k keyWriter
	k.Grow(256 + len(fp) + len(r.ProfileID) + len(r.ProfileText) + len(o.algorithm))
	k.str("mode=", r.Mode.String())
	k.str("|query=", fp)
	k.str("|profile_id=", r.ProfileID)
	k.str("|profile_text=", r.ProfileText)
	k.unum("|objective=", uint64(r.Problem.Objective))
	k.float("|cost_max=", r.Problem.CostMax)
	k.float("|doi_min=", r.Problem.DoiMin)
	k.float("|size_min=", r.Problem.SizeMin)
	k.float("|size_max=", r.Problem.SizeMax)
	k.str("|algorithm=", o.algorithm)
	k.num("|max_k=", o.maxK)
	k.num("|budget=", o.budget)
	k.flag("|any_match=", o.anyMatch)
	k.flag("|merge=", o.merge)
	k.num("|limit=", r.Limit)
	k.flag("|no_cache=", r.NoCache)
	k.unum(versionField, r.Version)
	k.unum("|generation=", r.Generation)
	return k.String()
}

// StaleKey returns key without its profile version and statistics
// generation: the identity of "the last good answer to this request",
// which stays addressable after either rotates. It is a prefix of key, so
// it costs no allocation.
func StaleKey(key string) string {
	if i := strings.LastIndex(key, versionField); i >= 0 {
		return key[:i]
	}
	return key
}

// keyWriter appends named fields to a key.
type keyWriter struct{ strings.Builder }

func (k *keyWriter) str(name, v string) {
	k.num(name, len(v))
	k.WriteByte(':')
	k.WriteString(v)
}

func (k *keyWriter) num(name string, v int) {
	var buf [24]byte
	k.WriteString(name)
	k.Write(strconv.AppendInt(buf[:0], int64(v), 10))
}

func (k *keyWriter) unum(name string, v uint64) {
	var buf [24]byte
	k.WriteString(name)
	k.Write(strconv.AppendUint(buf[:0], v, 10))
}

func (k *keyWriter) float(name string, v float64) {
	var buf [32]byte
	k.WriteString(name)
	k.Write(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
}

func (k *keyWriter) flag(name string, v bool) {
	k.WriteString(name)
	k.WriteString(strconv.FormatBool(v))
}
