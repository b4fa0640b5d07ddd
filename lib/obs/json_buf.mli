(** Appending JSON scalars to a [Buffer.t].

    The one JSON string escaper of the libraries, shared by the trace
    exporters ({!Sim.Trace_export}), the QoS rollup ({!Rollup}) and the
    metric registry ({!Registry}), so every surface escapes the same
    bytes the same way.  Both writers append in place and allocate
    nothing, which is what lets the exporters render a trace without a
    per-field string. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [n] in decimal, as [string_of_int n] would,
    [min_int] included. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped buf s] appends the body of the JSON string literal for
    [s], without the surrounding quotes: the double quote and the
    backslash are backslash-escaped, newline, tab and carriage return
    become backslash-n, -t and -r, every other byte below 0x20 becomes a
    six-byte backslash-u00XX escape (lowercase hex), and every other
    byte, 0x7f and up included, is copied as is.  A string with nothing to escape is appended with one
    [Buffer.add_string]. *)
