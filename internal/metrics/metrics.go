// Package metrics renders tagged counter structs in the Prometheus text
// exposition format (version 0.0.4). A struct is its own registry: each
// exported field's `metric` tag names the series it feeds, so the typed
// snapshot a program reads (JSON, expvar, tests) and the scrape are one
// value, and a field without a tag is visible to a test walking the type.
//
// Tags, by field kind:
//
//	any                `metric:"-"`: not rendered
//	struct             `metric:"PREFIX[,omitzero]"`: PREFIX heads every
//	                   name inside; omitzero skips the zero value
//	[]struct           `metric:"PREFIX,index=L"`: element i renders with
//	                   label L="i", and later slices indexed by L reuse
//	                   its label set
//	string             `metric:"L,label"`: labels the fields after it
//	number, Int64      `metric:"NAME[{K=V}],TYPE"`
//	[]number           `metric:"NAME[{K=V}],TYPE,index=L"`
//	[]string           `metric:"NAME,gauge,index=L,is=VALUE"`: 1 where
//	                   the element equals VALUE, else 0
//
// TYPE is counter, gauge or histogram. A histogram is a []number whose
// element i counts observations of the value i+1; it renders cumulative
// le buckets, _sum and _count. Fields sharing a NAME form one family
// told apart by their {K=V} label. A time.Duration renders in seconds.
// # HELP names the Go field path, so the field's doc comment is the
// series' only description. Families without samples are omitted.
package metrics

import (
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Int64 is an atomic counter or gauge that marshals to JSON as a number,
// for counter sets that are rendered live rather than snapshotted (hand
// Handler a pointer to them).
type Int64 struct{ atomic.Int64 }

// MarshalJSON renders the current value.
func (v *Int64) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, v.Load(), 10), nil
}

// Handler serves, on every request, the exposition of the tagged struct
// (or pointer to one) that snapshot returns.
func Handler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		v := reflect.Indirect(reflect.ValueOf(snapshot()))
		r := renderer{byName: map[string]*family{}, rows: map[string][]string{}}
		r.walk(v, v.Type().Name(), "", "")
		var b strings.Builder
		for _, f := range r.fams {
			b.WriteString("# HELP " + f.name + " " + strings.Join(f.help, ", ") + "\n")
			b.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
			for _, l := range f.lines {
				b.WriteString(l + "\n")
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}

// family is one exposition family; families render in first-seen order.
type family struct {
	name, typ   string
	help, lines []string
}

type renderer struct {
	fams   []*family
	byName map[string]*family
	rows   map[string][]string // per index label, each element's label set
}

// tag is a parsed metric tag: the name (or prefix, or label name), its
// constant label in exposition form, the TYPE (or "label") and the
// other options.
type tag struct {
	name, label, typ string
	opts             map[string]string
}

func parse(s string) tag {
	head, rest, _ := strings.Cut(s, ",")
	t := tag{name: head, opts: map[string]string{}}
	if name, kv, ok := strings.Cut(head, "{"); ok {
		k, v, _ := strings.Cut(strings.TrimSuffix(kv, "}"), "=")
		t.name, t.label = name, label(k, v)
	}
	for _, o := range strings.Split(rest, ",") {
		k, v, _ := strings.Cut(o, "=")
		t.opts[k] = v
		if k == "counter" || k == "gauge" || k == "histogram" || k == "label" {
			t.typ = k
		}
	}
	return t
}

// walk renders struct v's tagged fields; path is its Go field path,
// prefix the names' prefix so far, labels the inherited label set. It
// returns the label set its label fields grew.
func (r *renderer) walk(v reflect.Value, path, prefix, labels string) string {
	for i := range v.NumField() {
		f, fv := v.Type().Field(i), v.Field(i)
		s, tagged := f.Tag.Lookup("metric")
		if !f.IsExported() || s == "-" {
			continue
		}
		t, p := parse(s), path+"."+f.Name
		if f.Anonymous {
			p = path // promoted fields are selected without the embedded name
		}
		name, idx := prefix+t.name, t.opts["index"]
		switch elem := fv.Type(); {
		case t.typ == "label":
			labels = join(labels, label(t.name, fv.String()))
		case elem.Kind() == reflect.Struct && elem != int64Type:
			if _, omit := t.opts["omitzero"]; !omit || !fv.IsZero() {
				r.walk(fv, p, name, labels)
			}
		case elem.Kind() == reflect.Slice && elem.Elem().Kind() == reflect.Struct:
			for j := range fv.Len() {
				l := r.walk(fv.Index(j), p+"[i]", name, join(labels, label(idx, strconv.Itoa(j))))
				r.rows[idx] = append(r.rows[idx], l)
			}
		case !tagged || t.typ == "":
		case t.typ == "histogram":
			r.histogram(fv, name, p, labels)
		case elem.Kind() == reflect.Slice:
			for j := range fv.Len() {
				l := label(idx, strconv.Itoa(j))
				if rows := r.rows[idx]; j < len(rows) {
					l = rows[j]
				}
				r.add(name, t.typ, p, join(join(labels, l), t.label), value(fv.Index(j), t.opts["is"]))
			}
		default:
			r.add(name, t.typ, p, join(labels, t.label), value(fv, ""))
		}
	}
	return labels
}

// histogram renders v[i], the count of observations of i+1, as
// cumulative buckets plus _sum and _count.
func (r *renderer) histogram(v reflect.Value, name, path, labels string) {
	var count, sum float64
	for j := range v.Len() {
		n := value(v.Index(j), "")
		count, sum = count+n, sum+float64(j+1)*n
		r.add(name, "histogram", path, join(labels, label("le", strconv.Itoa(j+1))), count)
	}
	r.add(name, "histogram", path, join(labels, label("le", "+Inf")), count)
	f := r.byName[name]
	f.lines = append(f.lines, sample(name+"_sum", labels, sum), sample(name+"_count", labels, count))
}

// add appends one sample to its family, opening the family on first use.
func (r *renderer) add(name, typ, path, labels string, v float64) {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, typ: typ}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	}
	if !slices.Contains(f.help, path) {
		f.help = append(f.help, path)
	}
	if typ == "histogram" {
		name += "_bucket"
	}
	f.lines = append(f.lines, sample(name, labels, v))
}

var (
	int64Type    = reflect.TypeOf(Int64{})
	durationType = reflect.TypeOf(time.Duration(0))
)

// value reads a number (durations in seconds, Int64 through its address)
// or, for a string, whether it equals is.
func value(v reflect.Value, is string) float64 {
	switch {
	case v.Kind() == reflect.String:
		if v.String() == is {
			return 1
		}
		return 0
	case v.Type() == int64Type:
		return float64(v.Addr().Interface().(*Int64).Load())
	case v.Type() == durationType:
		return time.Duration(v.Int()).Seconds()
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	}
	return v.Float()
}

// escape escapes a label value: backslash, double quote and newline.
var escape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func label(k, v string) string { return k + `="` + escape.Replace(v) + `"` }

func join(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// sample renders one exposition line: integers without an exponent,
// everything else in Go's shortest form.
func sample(name, labels string, v float64) string {
	if labels != "" {
		name += "{" + labels + "}"
	}
	if v == float64(int64(v)) {
		return name + " " + strconv.FormatInt(int64(v), 10)
	}
	return name + " " + strconv.FormatFloat(v, 'g', -1, 64)
}
