package core

import (
	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/repair"
)

// Alert is a human-escalation event (§7: "alert a human observer for manual
// intervention").
type Alert struct {
	Time    float64
	Subject string
	Reason  string
}

// alertRec is one escalation as the manager keeps it: 16 bytes and no
// pointer. subj >= 0 indexes the model's components, which are never
// removed, so the index names the same component for the manager's life;
// subj < 0 is -1-i into alertLog.other.
type alertRec struct {
	at   float64
	subj int32
}

// Chunk i of an alert log holds min(firstAlertChunk<<i, maxAlertChunk)
// records.
const (
	firstAlertChunk = 4
	maxAlertChunk   = 256
)

// alertLog is a manager's escalation history. Records are appended into
// chunks that are never copied, growing geometrically up to maxAlertChunk
// records, so a manager with an alert or two holds under a hundred bytes
// and one with thousands holds 16 bytes an alert plus at most one chunk of
// slack.
type alertLog struct {
	chunks [][]alertRec
	n      int
	// other holds the subjects that are not components of the model (a nil
	// subject is "system"); no production strategy alerts on one.
	other []string
}

// add records an escalation of v, a violation in mdl, at time at.
func (l *alertLog) add(at float64, mdl *model.System, v constraint.Violation) {
	idx := int32(-1)
	if c, ok := v.Subject.(*model.Component); ok {
		for i, x := range mdl.Components() {
			if x == c {
				idx = int32(i)
				break
			}
		}
	}
	if idx < 0 {
		name, i := v.SubjectName(), 0
		for i < len(l.other) && l.other[i] != name {
			i++
		}
		if i == len(l.other) {
			l.other = append(l.other, name)
		}
		idx = int32(-1 - i)
	}
	if k := len(l.chunks); k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1]) {
		size := min(firstAlertChunk<<min(k, 8), maxAlertChunk)
		l.chunks = append(l.chunks, make([]alertRec, 0, size))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, alertRec{at: at, subj: idx})
	l.n++
}

// list builds the escalations in order; nil when there are none.
func (l *alertLog) list(mdl *model.System) []Alert {
	if l.n == 0 {
		return nil
	}
	comps := mdl.Components()
	out := make([]Alert, 0, l.n)
	for _, chunk := range l.chunks {
		for _, r := range chunk {
			var subj string
			if r.subj >= 0 {
				subj = comps[r.subj].Name()
			} else {
				subj = l.other[-1-r.subj]
			}
			out = append(out, Alert{Time: r.at, Subject: subj, Reason: repair.AlertReason})
		}
	}
	return out
}
