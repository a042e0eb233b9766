package admission

// CompleteTogether books the completion of several running tickets in one
// critical section and then dispatches once — the interleaving in which
// their completions all land before any dispatcher runs, which the public
// API reaches only by luck (every completion is followed at once by its own
// dispatch). The tickets' own done channels must never fire.
func (c *Controller) CompleteTogether(ts ...*Ticket) {
	c.mu.Lock()
	for _, t := range ts {
		c.finishLocked(t)
	}
	c.mu.Unlock()
	c.dispatch()
}
