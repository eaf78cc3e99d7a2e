package browser

import (
	"fmt"
	"net/url"
	"strings"

	"tripwire/internal/htmldom"
)

// Field is one fillable control in a form, with the contextual text a
// heuristic can use to guess its meaning: name, id, label, placeholder.
type Field struct {
	Node        *htmldom.Node
	Tag         string // input, select, textarea
	Type        string // text, password, email, checkbox, hidden, submit...
	Name        string
	Value       string // default value from the markup
	Label       string // associated visible label text, if discoverable
	Placeholder string
	Required    bool
	Options     []string // select options (values)

	// ctx memoizes Context(): field attributes never change after
	// extraction, and the crawler's classifier asks for the context of the
	// same field repeatedly (once per scoring pass).
	ctx   string
	ctxOK bool
}

// Form is one parsed <form>.
type Form struct {
	Node   *htmldom.Node
	Action *url.URL
	Method string // GET or POST, upper-case
	Fields []Field
}

// Forms extracts every form on the page, resolving actions against the
// page URL and associating labels with controls the way a rendering engine
// would: <label for=id>, wrapping <label>, or the nearest preceding label
// in the same container.
func (p *Page) Forms() []*Form {
	var out []*Form
	for _, f := range p.DOM().ElementsByTag("form") {
		form := &Form{Node: f, Method: strings.ToUpper(f.AttrOr("method", "GET"))}
		if form.Method != "POST" {
			form.Method = "GET"
		}
		action := f.AttrOr("action", "")
		if u, err := p.URL.Parse(action); err == nil {
			form.Action = u
		} else {
			form.Action = p.URL
		}
		labelFor := labelIndex(f)
		f.Walk(func(n *htmldom.Node) bool {
			switch n.Tag {
			case "input", "select", "textarea":
				form.Fields = append(form.Fields, makeField(n, labelFor))
			}
			return true
		})
		out = append(out, form)
	}
	return out
}

// labelIndex maps control ids to label text within a form.
func labelIndex(form *htmldom.Node) map[string]string {
	idx := make(map[string]string)
	for _, l := range form.ElementsByTag("label") {
		if id, ok := l.Attr("for"); ok && id != "" {
			idx[id] = l.Text()
		}
	}
	return idx
}

func makeField(n *htmldom.Node, labelFor map[string]string) Field {
	fld := Field{
		Node:        n,
		Tag:         n.Tag,
		Type:        strings.ToLower(n.AttrOr("type", "text")),
		Name:        n.AttrOr("name", ""),
		Value:       n.AttrOr("value", ""),
		Placeholder: n.AttrOr("placeholder", ""),
		Required:    n.HasAttr("required"),
	}
	if n.Tag == "select" {
		fld.Type = "select"
		for _, o := range n.ElementsByTag("option") {
			fld.Options = append(fld.Options, o.AttrOr("value", o.Text()))
		}
	}
	if n.Tag == "textarea" {
		fld.Type = "textarea"
		fld.Value = n.Text()
	}
	// Label discovery: explicit for=, wrapping label, else nearest
	// preceding label/text in the same paragraph-ish container.
	if id := n.ID(); id != "" {
		if txt, ok := labelFor[id]; ok {
			fld.Label = txt
		}
	}
	if fld.Label == "" {
		if wrap := n.Ancestor("label"); wrap != nil {
			fld.Label = wrap.Text()
		}
	}
	if fld.Label == "" {
		fld.Label = nearestLabelText(n)
	}
	return fld
}

// nearestLabelText walks backwards among siblings (and up one level) for
// visible text that likely labels the control.
func nearestLabelText(n *htmldom.Node) string {
	for cur := n; cur != nil; cur = cur.Parent {
		for sib := cur.PrevSibling(); sib != nil; sib = sib.PrevSibling() {
			switch {
			case sib.Type == htmldom.TextNode && strings.TrimSpace(sib.Data) != "":
				return strings.TrimSpace(sib.Data)
			case sib.Type == htmldom.ElementNode && sib.Tag == "label":
				return sib.Text()
			case sib.Type == htmldom.ElementNode && (sib.Tag == "input" || sib.Tag == "select" || sib.Tag == "form"):
				return "" // hit another control: no label between them
			case sib.Type == htmldom.ElementNode:
				if t := sib.Text(); t != "" {
					return t
				}
			}
		}
		if cur.Parent != nil && cur.Parent.Tag == "form" {
			break
		}
	}
	return ""
}

// Context returns all the text a heuristic can match against for this
// field: name, id, label, and placeholder, space-joined and lower-cased.
// Fields built without a parsed DOM node (synthetic fields in tests or
// callers classifying bare attribute tuples) simply contribute no id.
// The result is computed once per field: every downstream regex pass gets
// pre-lowered text without re-scanning mixed-case markup.
func (f *Field) Context() string {
	if f.ctxOK {
		return f.ctx
	}
	id := ""
	if f.Node != nil {
		id = f.Node.ID()
	}
	parts := []string{f.Name, id, f.Label, f.Placeholder}
	f.ctx = strings.ToLower(strings.Join(parts, " "))
	f.ctxOK = true
	return f.ctx
}

// Submission is a filled form ready to send.
type Submission struct {
	form   *Form
	values url.Values
	checks map[string]bool // checkbox name -> checked
}

// Fill starts a submission with the form's default values: hidden inputs,
// pre-set values, first select options. Checkboxes default to unchecked.
func (f *Form) Fill() *Submission {
	s := &Submission{form: f, values: url.Values{}, checks: make(map[string]bool)}
	for _, fld := range f.Fields {
		if fld.Name == "" {
			continue
		}
		switch fld.Type {
		case "submit", "button", "image", "reset":
			// Buttons only contribute when clicked; our submissions click
			// the default button, which most sites leave unnamed.
		case "checkbox", "radio":
			s.checks[fld.Name] = false
		case "select":
			if len(fld.Options) > 0 {
				s.values.Set(fld.Name, fld.Options[0])
			}
		default:
			s.values.Set(fld.Name, fld.Value)
		}
	}
	return s
}

// Set assigns a value to the named field.
func (s *Submission) Set(name, value string) *Submission {
	s.values.Set(name, value)
	return s
}

// Check marks the named checkbox as checked.
func (s *Submission) Check(name string) *Submission {
	s.checks[name] = true
	return s
}

// SelectLast chooses the last option of the named select (often the only
// non-empty one in short lists).
func (s *Submission) SelectLast(name string) *Submission {
	for _, fld := range s.form.Fields {
		if fld.Name == name && fld.Type == "select" && len(fld.Options) > 0 {
			s.values.Set(name, fld.Options[len(fld.Options)-1])
		}
	}
	return s
}

// Values returns the encoded form body that would be sent now.
func (s *Submission) Values() url.Values {
	v := url.Values{}
	for k, vs := range s.values {
		for _, x := range vs {
			v.Add(k, x)
		}
	}
	for name, checked := range s.checks {
		if checked {
			v.Set(name, "on")
		}
	}
	return v
}

// Submit sends the filled form through the browser session.
func (c *Client) Submit(s *Submission) (*Page, error) {
	if s.form.Action == nil {
		return nil, fmt.Errorf("browser: form has no resolvable action")
	}
	if s.form.Method == "POST" {
		return c.Post(s.form.Action.String(), s.Values())
	}
	u := *s.form.Action
	u.RawQuery = s.Values().Encode()
	return c.Get(u.String())
}
