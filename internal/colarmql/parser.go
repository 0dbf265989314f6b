package colarmql

import (
	"fmt"
	"strconv"
	"strings"
)

// RangeClause selects values for one range attribute.
type RangeClause struct {
	Attr   string
	Values []string
}

// Statement is a parsed localized mining query.
type Statement struct {
	Dataset       string
	Range         []RangeClause
	ItemAttrs     []string
	MinSupport    float64
	MinConfidence float64
	Plan          string // optional USING PLAN clause; empty = optimizer
}

// Parse parses one query statement. The trailing semicolon is optional.
func Parse(src string) (*Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }

// keyword consumes a case-insensitive keyword word, or errors.
func (p *parser) keyword(kw string) error {
	t := p.cur()
	if t.kind != tokWord || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("colarmql: expected %q at offset %d, found %q", kw, t.pos, t.text)
	}
	p.i++
	return nil
}

// peekKeyword reports whether the current token is the given keyword.
func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokWord && strings.EqualFold(t.text, kw)
}

func (p *parser) punct(ch string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != ch {
		return fmt.Errorf("colarmql: expected %q at offset %d, found %q", ch, t.pos, t.text)
	}
	p.i++
	return nil
}

func (p *parser) peekPunct(ch string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == ch
}

// name consumes an identifier (word or quoted string).
func (p *parser) name(what string) (string, error) {
	t := p.cur()
	if t.kind == tokWord || t.kind == tokString || t.kind == tokNumber && !strings.HasSuffix(t.text, "%") {
		p.i++
		return t.text, nil
	}
	return "", fmt.Errorf("colarmql: expected %s at offset %d, found %q", what, t.pos, t.text)
}

// number consumes a numeric literal; "70%" becomes 0.70, and plain
// values above 1 are also treated as percentages for convenience.
func (p *parser) number(what string) (float64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("colarmql: expected %s at offset %d, found %q", what, t.pos, t.text)
	}
	p.i++
	text := t.text
	pct := strings.HasSuffix(text, "%")
	text = strings.TrimSuffix(text, "%")
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, fmt.Errorf("colarmql: bad %s %q at offset %d", what, t.text, t.pos)
	}
	if pct || f > 1 {
		f /= 100
	}
	return f, nil
}

func (p *parser) statement() (*Statement, error) {
	st := &Statement{}
	for _, kw := range []string{"REPORT", "LOCALIZED", "ASSOCIATION", "RULES", "FROM"} {
		if err := p.keyword(kw); err != nil {
			return nil, err
		}
	}
	ds, err := p.name("dataset name")
	if err != nil {
		return nil, err
	}
	st.Dataset = ds

	if p.peekKeyword("WHERE") {
		p.i++
		if err := p.keyword("RANGE"); err != nil {
			return nil, err
		}
		if err := p.rangeClauses(st); err != nil {
			return nil, err
		}
	}
	// Optional: AND ITEM ATTRIBUTES a, b, c
	if p.peekKeyword("AND") && p.toks[p.i+1].kind == tokWord && strings.EqualFold(p.toks[p.i+1].text, "ITEM") {
		p.i++ // AND
		if err := p.keyword("ITEM"); err != nil {
			return nil, err
		}
		if err := p.keyword("ATTRIBUTES"); err != nil {
			return nil, err
		}
		for {
			a, err := p.name("item attribute")
			if err != nil {
				return nil, err
			}
			st.ItemAttrs = append(st.ItemAttrs, a)
			if !p.peekPunct(",") {
				break
			}
			p.i++
		}
	}
	if err := p.keyword("HAVING"); err != nil {
		return nil, err
	}
	if err := p.keyword("MINSUPPORT"); err != nil {
		return nil, err
	}
	if err := p.punct("="); err != nil {
		return nil, err
	}
	if st.MinSupport, err = p.number("minsupport"); err != nil {
		return nil, err
	}
	if err := p.keyword("AND"); err != nil {
		return nil, err
	}
	if err := p.keyword("MINCONFIDENCE"); err != nil {
		return nil, err
	}
	if err := p.punct("="); err != nil {
		return nil, err
	}
	if st.MinConfidence, err = p.number("minconfidence"); err != nil {
		return nil, err
	}
	// Optional: USING PLAN <name>
	if p.peekKeyword("USING") {
		p.i++
		if err := p.keyword("PLAN"); err != nil {
			return nil, err
		}
		plan, err := p.name("plan name")
		if err != nil {
			return nil, err
		}
		st.Plan = plan
	}
	if p.peekPunct(";") {
		p.i++
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, fmt.Errorf("colarmql: unexpected trailing input %q at offset %d", t.text, t.pos)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// rangeClauses parses attr = (v1, v2), attr2 = (v3), ...
func (p *parser) rangeClauses(st *Statement) error {
	for {
		attr, err := p.name("range attribute")
		if err != nil {
			return err
		}
		if err := p.punct("="); err != nil {
			return err
		}
		if err := p.punct("("); err != nil {
			return err
		}
		rc := RangeClause{Attr: attr}
		for {
			v, err := p.name("range value")
			if err != nil {
				return err
			}
			rc.Values = append(rc.Values, v)
			if p.peekPunct(",") {
				p.i++
				continue
			}
			break
		}
		if err := p.punct(")"); err != nil {
			return err
		}
		st.Range = append(st.Range, rc)
		// Another clause only if a comma follows and the next token is
		// not a keyword that starts the next section.
		if p.peekPunct(",") {
			p.i++
			continue
		}
		return nil
	}
}

func (st *Statement) validate() error {
	if st.Dataset == "" {
		return fmt.Errorf("colarmql: missing dataset name")
	}
	if st.MinSupport <= 0 || st.MinSupport > 1 {
		return fmt.Errorf("colarmql: minsupport %v outside (0,1]", st.MinSupport)
	}
	if st.MinConfidence < 0 || st.MinConfidence > 1 {
		return fmt.Errorf("colarmql: minconfidence %v outside [0,1]", st.MinConfidence)
	}
	seen := map[string]bool{}
	for _, rc := range st.Range {
		key := strings.ToLower(rc.Attr)
		if seen[key] {
			return fmt.Errorf("colarmql: duplicate range attribute %q", rc.Attr)
		}
		seen[key] = true
		if len(rc.Values) == 0 {
			return fmt.Errorf("colarmql: range attribute %q selects no values", rc.Attr)
		}
	}
	return nil
}

// reserved holds the language's keywords (lower-cased); rendered bare
// they could terminate the clause they appear in, so String quotes
// them when they occur as names or values.
var reserved = map[string]bool{
	"report": true, "localized": true, "association": true, "rules": true,
	"from": true, "where": true, "range": true, "item": true,
	"attributes": true, "having": true, "minsupport": true,
	"minconfidence": true, "and": true, "using": true, "plan": true,
}

// quoteName renders an identifier or value so it lexes back to itself:
// bare when every byte is a word byte and the word is not a keyword,
// single-quoted (with \-escapes for the quote and backslash) otherwise.
func quoteName(s string) string {
	bare := s != "" && !reserved[strings.ToLower(s)]
	for i := 0; bare && i < len(s); i++ {
		if !isWordByte(s[i]) {
			bare = false
		}
	}
	if bare {
		return s
	}
	var b strings.Builder
	b.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\'' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('\'')
	return b.String()
}

func quoteNames(vals []string) string {
	quoted := make([]string, len(vals))
	for i, v := range vals {
		quoted[i] = quoteName(v)
	}
	return strings.Join(quoted, ", ")
}

// String renders the statement back to query-language text that parses
// to an equivalent statement.
func (st *Statement) String() string {
	var b strings.Builder
	b.WriteString("REPORT LOCALIZED ASSOCIATION RULES\nFROM ")
	b.WriteString(quoteName(st.Dataset))
	if len(st.Range) > 0 {
		b.WriteString("\nWHERE RANGE ")
		for i, rc := range st.Range {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = (%s)", quoteName(rc.Attr), quoteNames(rc.Values))
		}
	}
	if len(st.ItemAttrs) > 0 {
		b.WriteString("\nAND ITEM ATTRIBUTES ")
		b.WriteString(quoteNames(st.ItemAttrs))
	}
	fmt.Fprintf(&b, "\nHAVING minsupport = %g AND minconfidence = %g", st.MinSupport, st.MinConfidence)
	if st.Plan != "" {
		fmt.Fprintf(&b, "\nUSING PLAN %s", quoteName(st.Plan))
	}
	b.WriteString(";")
	return b.String()
}
