//! The contiguous-array [`Stack`] checked against the representation it
//! replaced: a `Vec` of frames that each own their slots. After every
//! operation of a random sequence every frame view, and the top frame's
//! slots read through the stack's cached base, must read exactly what the
//! model holds, and the marker bookkeeping must stay conservative.

use proptest::prelude::*;
use tilgc_mem::Addr;
use tilgc_runtime::{DescId, FrameDesc, ShadowTag, Stack, Trace, TraceTable, Value};

#[derive(Clone, Debug)]
enum Op {
    /// Push a frame of `slots` slots (0 included) under descriptor `desc`.
    Push {
        desc: u8,
        slots: u8,
    },
    /// Push a frame laid out by descriptor `desc`'s compiled trace.
    PushCompiled {
        desc: u8,
    },
    Pop,
    /// Raise-unwind to a depth chosen from the current one.
    Unwind {
        to: u8,
    },
    /// Typed write to a slot of the top frame.
    SetTop {
        slot: u8,
        value: i16,
        ptr: bool,
    },
    /// Raw (collector-style) write to a slot of any frame.
    SetRaw {
        depth: u8,
        slot: u8,
        word: u16,
    },
    /// A scan epoch: markers at up to three depths, some beyond the stack.
    Mark {
        a: u8,
        b: u8,
        c: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), 0u8..6).prop_map(|(desc, slots)| Op::Push { desc, slots }),
        2 => any::<u8>().prop_map(|desc| Op::PushCompiled { desc }),
        4 => Just(Op::Pop),
        1 => any::<u8>().prop_map(|to| Op::Unwind { to }),
        4 => (any::<u8>(), any::<i16>(), any::<bool>())
            .prop_map(|(slot, value, ptr)| Op::SetTop { slot, value, ptr }),
        3 => (any::<u8>(), any::<u8>(), any::<u16>())
            .prop_map(|(depth, slot, word)| Op::SetRaw { depth, slot, word }),
        1 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Op::Mark { a, b, c }),
    ]
}

type ModelFrame = (DescId, Vec<(u64, ShadowTag)>);

fn assert_matches_model(stack: &Stack, model: &[ModelFrame]) {
    assert_eq!(stack.depth(), model.len());
    assert_eq!(stack.is_empty(), model.is_empty());
    for (d, (desc, slots)) in model.iter().enumerate() {
        let frame = stack.frame(d);
        assert_eq!(frame.desc(), *desc, "frame {d}");
        assert_eq!(frame.num_slots(), slots.len(), "frame {d}");
        for (i, &(word, tag)) in slots.iter().enumerate() {
            assert_eq!(frame.word(i), word, "frame {d} slot {i}");
            assert_eq!(frame.shadow(i), tag, "frame {d} slot {i}");
        }
    }
    // The top frame's accessors read it through the cached base.
    if let Some((_, slots)) = model.last() {
        for (i, &(word, tag)) in slots.iter().enumerate() {
            assert_eq!(stack.top_word(i), word, "top slot {i}");
            assert_eq!(stack.top_shadow(i), tag, "top slot {i}");
        }
    }
    assert!(
        stack.reusable_prefix() <= stack.true_unchanged_prefix(),
        "markers over-promised: claimed {}, true {}",
        stack.reusable_prefix(),
        stack.true_unchanged_prefix()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn contiguous_stack_matches_the_frame_per_vec_model(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        // Layouts of 0, 3 and 11 slots: the last spans two template
        // blocks and ends inside the second.
        let layouts = [
            vec![],
            vec![Trace::Pointer, Trace::NonPointer, Trace::Pointer],
            [Trace::NonPointer, Trace::Pointer].repeat(5).into_iter().chain([Trace::Pointer]).collect(),
        ];
        let mut table = TraceTable::new();
        let descs: Vec<DescId> = layouts
            .iter()
            .enumerate()
            .map(|(i, traces)| {
                let desc = traces.iter().fold(FrameDesc::new(format!("d{i}")), |d, &t| d.slot(t));
                table.register(desc)
            })
            .collect();
        let mut stack = Stack::new();
        let mut model: Vec<ModelFrame> = Vec::new();
        for op in &ops {
            match *op {
                Op::Push { desc, slots } => {
                    let desc = descs[desc as usize % descs.len()];
                    stack.push(desc, slots as usize);
                    model.push((desc, vec![(0, ShadowTag::NonPtr); slots as usize]));
                }
                Op::PushCompiled { desc } => {
                    let which = desc as usize % descs.len();
                    stack.push_compiled(descs[which], table.compiled(descs[which]));
                    let tag = |t: &Trace| {
                        if *t == Trace::Pointer { ShadowTag::Ptr } else { ShadowTag::NonPtr }
                    };
                    model.push((descs[which], layouts[which].iter().map(|t| (0, tag(t))).collect()));
                }
                Op::Pop => {
                    if model.pop().is_some() {
                        // Whether a stub fires is the marker tests' business.
                        stack.pop();
                    }
                }
                Op::Unwind { to } => {
                    let target = to as usize % (model.len() + 1);
                    stack.unwind_for_raise(target);
                    model.truncate(target);
                }
                Op::SetTop { slot, value, ptr } => {
                    if let Some((_, slots)) = model.last_mut().filter(|(_, s)| !s.is_empty()) {
                        let i = slot as usize % slots.len();
                        let value = if ptr {
                            Value::Ptr(Addr::new(value as u16 as u32))
                        } else {
                            Value::Int(i64::from(value))
                        };
                        stack.set_top(i, value);
                        slots[i] = (value.to_word(), ShadowTag::of(value));
                    }
                }
                Op::SetRaw { depth, slot, word } => {
                    if !model.is_empty() {
                        let d = depth as usize % model.len();
                        let slots = &mut model[d].1;
                        if !slots.is_empty() {
                            let i = slot as usize % slots.len();
                            stack.frame_mut(d).set_word_raw(i, u64::from(word));
                            slots[i].0 = u64::from(word);
                        }
                    }
                }
                Op::Mark { a, b, c } => {
                    stack.place_markers_at([a, b, c].map(|d| d as usize % 48));
                }
            }
            assert_matches_model(&stack, &model);
        }
    }
}
