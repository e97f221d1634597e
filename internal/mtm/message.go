// Package mtm implements the Message Transformation Model (MTM), the
// platform-independent, process-based description model the DIPBench paper
// uses to specify its 15 integration process types. A process is a typed
// operator graph (RECEIVE, ASSIGN, INVOKE, SWITCH, TRANSLATE, VALIDATE,
// SELECTION, PROJECTION, JOIN, UNION DISTINCT, FORK, subprocess
// invocations) over messages that carry either XML documents or relational
// datasets. Executing a process records its costs in the three categories
// of the benchmark's cost model: communication (Cc), internal management
// (Cm) and processing (Cp).
package mtm

import (
	"fmt"

	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// Message is the unit of data flowing between operators: an XML document,
// a relational dataset, or both (e.g. after a conversion step).
type Message struct {
	// Doc is the XML payload, nil for pure datasets.
	Doc *x.Node
	// Data is the relational payload, nil for pure XML messages.
	Data *rel.Relation
}

// XMLMessage wraps a document as a message.
func XMLMessage(doc *x.Node) *Message { return &Message{Doc: doc} }

// DataMessage wraps a relation as a message.
func DataMessage(r *rel.Relation) *Message { return &Message{Data: r} }

// IsXML reports whether the message carries an XML document.
func (m *Message) IsXML() bool { return m != nil && m.Doc != nil }

// IsData reports whether the message carries a relational dataset.
func (m *Message) IsData() bool { return m != nil && m.Data != nil }

// RequireDoc returns the XML payload or an error naming the variable.
func (m *Message) RequireDoc(varName string) (*x.Node, error) {
	if m == nil || m.Doc == nil {
		return nil, fmt.Errorf("mtm: variable %q does not hold an XML document", varName)
	}
	return m.Doc, nil
}

// RequireData returns the relational payload or an error naming the
// variable.
func (m *Message) RequireData(varName string) (*rel.Relation, error) {
	if m == nil || m.Data == nil {
		return nil, fmt.Errorf("mtm: variable %q does not hold a dataset", varName)
	}
	return m.Data, nil
}

// Size estimates the message cardinality: rows for datasets, element count
// for XML documents. Used by monitoring statistics.
func (m *Message) Size() int {
	if m == nil {
		return 0
	}
	switch {
	case m.Data != nil:
		return m.Data.Len()
	case m.Doc != nil:
		return m.Doc.CountElements()
	default:
		return 0
	}
}
