package exchange

// Plans renders the plans the engine's last propagation ran.
func (e *Engine) Plans() string { return e.inc.Plans() }
