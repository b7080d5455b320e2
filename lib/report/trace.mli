(** Reader for [pc-trace/1] timelines.

    {!Pc_trace.Chrome} writes traces; this module reads them back for
    the drift engine ({!Diff}) without pulling the tracer's runtime
    (sampler domain, event collector) into report-only tools.  Both
    sides go through {!Pc_util.Json}, whose number leaves keep their
    literal text, so [Json.encode] of a parsed trace is byte-identical
    to the file {!Pc_trace.Chrome.stop} wrote (minus the trailing
    newline) — a test-enforced round trip. *)

type event = {
  ph : string;  (** ["M"], ["B"], ["E"], ["i"], ["s"], ["t"], ["f"], ["C"] *)
  tid : int;  (** track: 0 = main, [i] = pool worker slot [i] *)
  ts : float;  (** microseconds since the trace epoch; [0.] for ["M"] *)
  name : string;
  id : int;  (** flow-arrow binding id (["s"]/["t"]/["f"]); [0] otherwise *)
  args : (string * Pc_util.Json.t) list;
}

type t = { events : event list }  (** in file order *)

val parse : Pc_util.Json.t -> (t, string) result
(** Accepts only documents whose {!Pc_util.Json.schema} is
    ["pc-trace/1"] and whose events all carry a known [ph]. *)

val parse_file : string -> (t, string) result
