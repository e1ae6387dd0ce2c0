"""Render a turn prompt from a schema and dialogue, then parse a reply.

Run from the repository root: python3 demos/01_prompts_and_parsing.py
"""

from slotweaver.core import (
    GOLD,
    Dialogue,
    SlotDef,
    SlotSchema,
    Turn,
    canonical_slot_key,
)
from slotweaver.seqio import parse_state_block, render_prompt

schema = SlotSchema(
    (
        SlotDef(canonical_slot_key("garden layouts", "style"),
                "The preferred style of the garden layout.", GOLD),
        SlotDef(canonical_slot_key("plant selections", "color"),
                "The color preference for the plant.", GOLD),
    )
)

dialogue = Dialogue(
    "demo-1",
    "garden",
    (
        Turn("user", "I want a desert style garden with pink flowers."),
        Turn("agent", "Great, anything else?"),
        Turn("user", "Full sun would be ideal, please."),
    ),
)

prompt = render_prompt(schema, dialogue, upto_turn=2)
print("=== prompt sent to the model ===")
print(prompt)

reply = """# Key Information Values

## Garden Layouts
* style: desert

## Plant Selections
* color: Pink
* sunlight: Full Sun
- the plant's sun requirements
"""

prediction = parse_state_block(reply, schema)
print("=== parsed state ===")
for key, value in sorted(prediction.state.triples):
    marker = " (new slot)" if key in prediction.state.new_slot_descriptions else ""
    print(f"  {key} = {value}{marker}")
