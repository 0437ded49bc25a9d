(* Monotonic clock and an in-memory span recorder.

   Spans are opened and closed by the benchmark around its calls into
   the program's public functions; nothing inside the program is
   instrumented.  Each closed span updates per-name totals at once
   (calls, total and self time), so the self-time table covers every
   span even when the kept record is capped.  A span's self time is its
   duration minus the durations of the spans nested directly inside it;
   children are sequential, so their sum is exactly the covered part. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let max_names = 32
let max_depth = 16

(* Kept spans: id, name, start, end, parent id (-1 for a root), step id. *)
let fields = 6

type t = {
  mutable names : string array;
  mutable n_names : int;
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  st_id : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  mutable next_id : int;
  mutable step : int;
  cap : int;
  keep : int array;
  mutable kept : int;
  mutable dropped : int;
}

let create ~cap =
  { names = Array.make max_names "";
    n_names = 0;
    calls = Array.make max_names 0;
    total_ns = Array.make max_names 0;
    self_ns = Array.make max_names 0;
    st_id = Array.make max_depth 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    step = 0;
    cap;
    keep = Array.make (cap * fields) 0;
    kept = 0;
    dropped = 0 }

(* Names are registered once, before the timed loop. *)
let name t s =
  let rec find i =
    if i = t.n_names then begin
      if i = max_names then invalid_arg "Span.name: too many names";
      t.names.(i) <- s;
      t.n_names <- i + 1;
      i
    end
    else if String.equal t.names.(i) s then i
    else find (i + 1)
  in
  find 0

let set_step t step = t.step <- step

let enter t n =
  let d = t.depth in
  t.st_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.st_name.(d) <- n;
  t.st_child.(d) <- 0;
  t.depth <- d + 1;
  t.st_start.(d) <- now_ns ()

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let start = t.st_start.(d) in
  let dur = stop - start in
  let n = t.st_name.(d) in
  t.calls.(n) <- t.calls.(n) + 1;
  t.total_ns.(n) <- t.total_ns.(n) + dur;
  t.self_ns.(n) <- t.self_ns.(n) + dur - t.st_child.(d);
  let parent =
    if d = 0 then -1
    else begin
      t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
      t.st_id.(d - 1)
    end
  in
  if t.kept < t.cap then begin
    let o = t.kept * fields in
    t.keep.(o) <- t.st_id.(d);
    t.keep.(o + 1) <- n;
    t.keep.(o + 2) <- start;
    t.keep.(o + 3) <- stop;
    t.keep.(o + 4) <- parent;
    t.keep.(o + 5) <- t.step;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1

let calls t n = t.calls.(n)
let total_ns t n = t.total_ns.(n)
let self_ns t n = t.self_ns.(n)

(* Per-name self-time table; [root] is the span whose total is 100%. *)
let pp_table ppf (t, root) =
  let whole = float_of_int (max 1 t.total_ns.(root)) in
  Format.fprintf ppf "%-22s %10s %12s %12s %8s %12s@." "span" "calls"
    "total_ms" "self_ms" "self_%" "self_us/call";
  for n = 0 to t.n_names - 1 do
    if t.calls.(n) > 0 then
      Format.fprintf ppf "%-22s %10d %12.3f %12.3f %8.2f %12.3f@." t.names.(n)
        t.calls.(n)
        (float_of_int t.total_ns.(n) /. 1e6)
        (float_of_int t.self_ns.(n) /. 1e6)
        (100. *. float_of_int t.self_ns.(n) /. whole)
        (float_of_int t.self_ns.(n) /. 1e3 /. float_of_int t.calls.(n))
  done

(* One line per kept span, in closing order; times are nanoseconds on
   the monotonic clock. *)
let write t path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\tstep\n";
  for i = 0 to t.kept - 1 do
    let o = i * fields in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" t.keep.(o)
      t.names.(t.keep.(o + 1))
      t.keep.(o + 2) t.keep.(o + 3) t.keep.(o + 4) t.keep.(o + 5)
  done;
  close_out oc
