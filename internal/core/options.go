package core

import "fmt"

// optionError is the validation failure returned by the options-struct
// constructors (NewControllerWithOptions, NewBorderRouterWithOptions,
// NewSystemWithOptions): it names the options struct, the offending
// field and what is wrong with it.
type optionError struct {
	Struct string // the options struct, e.g. "RouterOptions"
	Field  string // the offending field, e.g. "Tables"
	Reason string // what is wrong with it, e.g. "required"
}

func (e *optionError) Error() string {
	return fmt.Sprintf("core: %s.%s: %s", e.Struct, e.Field, e.Reason)
}

func optErr(strct, field, reason string) *optionError {
	return &optionError{Struct: strct, Field: field, Reason: reason}
}
