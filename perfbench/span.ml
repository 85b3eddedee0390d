(* In-memory span recorder for traced runs.

   A span is one call from the benchmark into a layer of the program:
   its name, start and end on the monotonic clock, the span that was
   open when it started, and an optional work count recorded at the
   same boundary (candidates swept, instructions simulated, bytes
   moved, ...).  Spans stay in memory until [write] at the end of the
   run, so recording costs two clock reads and one allocation.  With
   tracing off, [run] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 at the top level *)
  t0 : int64;
  mutable t1 : int64;
  mutable count : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let now_ns = Augem.Jit.Clock.now_ns

(* [run name f] calls [f] inside a span; [count] derives the span's
   work count from [f]'s result. *)
let run ?(count = fun _ -> 0.) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; t0 = now_ns (); t1 = 0L; count = 0. } in
    open_ids := id :: !open_ids;
    let close () =
      s.t1 <- now_ns ();
      open_ids := List.tl !open_ids;
      recorded := s :: !recorded
    in
    let r = Fun.protect ~finally:close f in
    s.count <- count r;
    r
  end

let seconds s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9
let named name = List.filter (fun s -> String.equal s.name name) !recorded

let median_of l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then None
  else Some (if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

(* Median duration of the spans called [name], in seconds. *)
let median_seconds name = median_of (List.map seconds (named name))

(* Median count-per-second over the spans called [name]. *)
let median_rate name = median_of (List.map (fun s -> s.count /. seconds s) (named name))

(* Median seconds-per-count over the spans called [name]. *)
let median_per_count name = median_of (List.map (fun s -> seconds s /. s.count) (named name))

(* The count of the first span called [name]; counts are meant to be
   the same on every span of one name. *)
let count name =
  match List.rev (named name) with s :: _ -> Some s.count | [] -> None

(* One JSON object per line, in start order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"count\":%.17g}\n"
        s.id s.name s.parent s.t0 s.t1 s.count)
    (List.sort (fun a b -> compare a.id b.id) !recorded);
  close_out oc
