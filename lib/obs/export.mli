(** File export for traces and metric snapshots — the shared tail of every
    binary's [--trace FILE] / [--metrics FILE] flags.

    Format follows the file extension: [.json] gets the Chrome
    [trace_event] document (load in chrome://tracing or ui.perfetto.dev),
    anything else gets JSONL. Output bytes depend only on the collector's
    contents, never on the path or the wall clock. *)

type format = Chrome | Jsonl

val format_of_path : string -> format
(** [Chrome] for paths ending in [.json], [Jsonl] otherwise. *)

val filter_of_spec : string option -> (string -> bool) option
(** Compile a [--trace-filter] spec — comma-separated category names, e.g.
    ["episode,chaos"] — into a category predicate. [None] or an empty spec
    means no filtering. *)

val write_file : path:string -> string -> unit
(** Write the string to the path, replacing any earlier file; the channel
    is closed whether or not the write raises. *)

val trace_to_string : ?filter:(string -> bool) -> format:format -> Trace.t -> string

val write_trace : path:string -> ?filter:(string -> bool) -> Trace.t -> unit
(** Render the trace in the format {!format_of_path} picks and write it. *)

val write_metrics : path:string -> ?time:float -> Metrics.t -> unit
(** Write {!Metrics.snapshot_json} (plus a trailing newline) to the path. *)
